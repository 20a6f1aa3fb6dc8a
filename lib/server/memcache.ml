(** The daemon's in-memory cache tier: verdicts and the source memo.

    Two mutex-protected hashtables, installed into
    {!Flux_engine.Cache.memory_tier} at daemon start:

    - verdicts, over the engine's content-addressed MD5 keys. The keys
      are the same as the disk tier's, so the layering is trivially
      sound: memory is probed first, a disk hit is promoted into
      memory, and a fresh verdict is written to both. A warm request
      therefore replays entirely out of this table — zero SMT queries
      and zero disk I/O per function;
    - key lists, by {!Flux_engine.Cache.source_digest}: the
      [(fn name, key)] list a request's source was keyed to, so a
      request re-sending that source probes its verdicts without
      parsing. A key list is a pure function of its digest's material,
      so it stays valid whatever happens to the verdicts it names.

    Both share one cap, counted in slots: a verdict takes one slot, a
    key list one per function it names (at least one), so the cap bounds
    what the table holds however large the sources are. Once a new
    entry does not fit, entries are evicted oldest first, except that
    one loaded since it was inserted or last passed over is passed over
    once more (second chance), so verdicts and key lists that requests
    keep reading outlive the one-off key lists of edited sources. An
    evicted verdict degrades to the disk tier, an evicted key list to
    keying the source afresh; a key list larger than the whole cap is
    not memoised. Sessions run on separate domains, so every access
    takes the mutex. *)

module Cache = Flux_engine.Cache

(* An entry: its value, its slots, and whether it was loaded since it
   was inserted or last passed over. *)
type 'v cell = { v : 'v; slots : int; mutable used : bool }

(* Which table an entry of the eviction order is in. *)
type slot = Verdict of string | Keys of string

type t = {
  mu : Mutex.t;
  cap : int;
  tbl : (string, Cache.entry cell) Hashtbl.t;
  keys : (string, (string * string) list cell) Hashtbl.t;
  order : slot Queue.t;  (** every entry once, oldest first *)
  mutable held : int;  (** slots taken *)
}

(** The default cap in slots: about 4,000 functions' verdicts and key
    lists, 130 times what perfbench's daemon workloads hold. Measured
    with [bench/main.exe memo] (EXPERIMENTS.md, "Memory-tier cap"), a
    fluxd filled to four times this cap stayed near 50 MB resident,
    where a cap of 32,768 reached 124 MB. *)
let default_cap = 8192

(** A fresh, empty tier. [cap] (default {!default_cap}) is for tests,
    which need eviction to happen after a few entries. *)
let create ?(cap = default_cap) () : t =
  if cap < 1 then invalid_arg "Memcache.create: cap < 1";
  {
    mu = Mutex.create ();
    cap;
    tbl = Hashtbl.create 1024;
    keys = Hashtbl.create 64;
    order = Queue.create ();
    held = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Under the mutex: the front entry of the order, in [tbl], is evicted,
   or, if it was used, passed over to the back. *)
let pass_front t tbl k slot =
  match Hashtbl.find_opt tbl k with
  | Some c when c.used ->
      c.used <- false;
      Queue.push slot t.order
  | Some c ->
      Hashtbl.remove tbl k;
      t.held <- t.held - c.slots
  | None -> ()

(* Under the mutex. Replacing an entry keeps its place in the order (a
   key list stored again under its digest is the same list). Each pass
   over the order clears every [used], so making room ends. *)
let insert t tbl slot k v ~slots =
  match Hashtbl.find_opt tbl k with
  | Some c -> Hashtbl.replace tbl k { c with v }
  | None when slots > t.cap -> ()
  | None ->
      while t.held + slots > t.cap do
        match Queue.pop t.order with
        | Verdict k' as s -> pass_front t t.tbl k' s
        | Keys k' as s -> pass_front t t.keys k' s
      done;
      Queue.push slot t.order;
      Hashtbl.replace tbl k { v; slots; used = false };
      t.held <- t.held + slots

(* Under the mutex. *)
let find tbl k =
  match Hashtbl.find_opt tbl k with
  | Some c ->
      c.used <- true;
      Some c.v
  | None -> None

let tier (t : t) : Cache.tier =
  {
    Cache.t_load = (fun k -> locked t (fun () -> find t.tbl k));
    t_store =
      (fun k e -> locked t (fun () -> insert t t.tbl (Verdict k) k e ~slots:1));
    t_keys_load = (fun d -> locked t (fun () -> find t.keys d));
    t_keys_store =
      (fun d ks ->
        locked t (fun () ->
            insert t t.keys (Keys d) d ks ~slots:(max 1 (List.length ks))));
  }

(** Install this table as the process-wide memory tier. Call once,
    before serving requests (the tier ref is written once and then only
    read — see {!Flux_engine.Cache.memory_tier}). *)
let install (t : t) : unit = Cache.set_memory_tier (Some (tier t))

(** Verdicts held. *)
let size (t : t) : int = locked t (fun () -> Hashtbl.length t.tbl)

(** Key lists held. *)
let sources (t : t) : int = locked t (fun () -> Hashtbl.length t.keys)

(** Slots taken, at most the cap. *)
let slots (t : t) : int = locked t (fun () -> t.held)

let clear (t : t) : unit =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      Hashtbl.reset t.keys;
      Queue.clear t.order;
      t.held <- 0)
