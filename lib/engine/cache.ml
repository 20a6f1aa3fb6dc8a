(** The persistent incremental verification cache.

    Content-addressed: a function's cache key is the MD5 of everything
    its (modular) verification depends on — its lowered MIR body, its
    own resolved refinement signature, the signatures of every function
    it calls, the struct environment, the qualifier set, the relevant
    configuration flags, and a checker-version salt. Two consequences:

    - a hit is sound to reuse: by modularity (PAPER.md §6) the check of
      a function reads nothing outside the key material;
    - edits invalidate exactly the affected keys: changing one callee's
      [lr::sig] changes the keys of that callee and its callers, and
      nothing else (fingerprints are span-insensitive, so shifting line
      numbers invalidates nothing, and signature binder names restart
      at zero per declaration — see [Specconv.resolve_sig] — so they
      do not leak positional state between declarations).

    Only error-free verdicts are stored: error reports carry source
    spans, which the key deliberately ignores, so replaying them after
    an edit elsewhere in the file could point at stale locations.
    Failing functions are simply re-checked — re-reporting errors is
    the cheap case compared to re-proving successes.

    Entries are plain scalar records serialized with [Marshal] (no
    closures or custom blocks, so they are stable across executables
    built by the same compiler) and written atomically (temp file +
    rename), making concurrent writers from parallel runs or separate
    processes safe. A corrupt or unreadable entry degrades to a miss. *)

module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir
module Genv = Flux_check.Genv
open Flux_smt
open Flux_rtype
open Flux_fixpoint

(** Bump on any change to constraint generation, solving, or the
    fingerprint scheme: stale entries from older checkers must miss. *)
let version = "flux-engine-v2"

type entry = {
  e_kvars : int;  (** κ variables of the original check (0 for WP) *)
  e_clauses : int;  (** Horn clauses (Flux) or VCs discharged (WP) *)
  e_time : float;  (** wall-clock seconds of the original check *)
}

type slice_entry = { se_sols : (string * Term.t list) list }
(** The solved conjuncts of one SCC slice's own κs (see
    {!Flux_fixpoint.Solve.slice_fingerprint}). Stored only for slices
    whose concrete heads all passed, for the same reason whole-function
    entries only store error-free verdicts. Terms are closed qualifier
    instantiations over the κ formals — plain constructor trees, safe
    to [Marshal]. *)

(* ------------------------------------------------------------------ *)
(* The in-memory tier                                                  *)
(* ------------------------------------------------------------------ *)

type tier = {
  t_load : string -> entry option;
  t_store : string -> entry -> unit;
  t_keys_load : string -> (string * string) list option;
  t_keys_store : string -> (string * string) list -> unit;
}
(** A second cache tier consulted before the disk store. Keys are the
    same content-addressed MD5s, so an entry is valid independently of
    which directory it was first written under. The daemon installs a
    mutex-protected hashtable here ({!Flux_server.Memcache}) so warm
    requests skip even the disk probe; CLI processes leave it unset.

    The tier also holds the source memo ([t_keys_*]): a source's
    {!source_digest} mapped to the [(fn name, key)] list
    {!program_keys} returned for it, so a warm request can probe its
    verdicts without parsing (see {!Flux_engine.Engine.prepare}).

    The tier is installed once at process/daemon start, before any
    requests run, and is then only read — so plain [ref] access is safe
    across the request and worker domains (the tier's own callbacks
    must be domain-safe). *)

let memory_tier : tier option ref = ref None
let set_memory_tier t = memory_tier := t

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let hex s = Digest.to_hex (Digest.string s)

(** The printers used below render no source spans, so fingerprints are
    stable under edits that only move code around. *)
let body_fingerprint (b : Ir.body) : string = hex (Ir.body_to_string b)

let pp_sorted_binders fmt bs =
  List.iter (fun (x, s) -> Format.fprintf fmt "%s:%a;" x Sort.pp s) bs

let fsig_fingerprint (s : Specconv.fsig) : string =
  hex
    (Format.asprintf "%s|params:%a|args:%a|req:%a|ret:%a|ens:%a"
       s.Specconv.fsg_name pp_sorted_binders s.Specconv.fsg_params
       (Format.pp_print_list Rty.pp)
       s.Specconv.fsg_args
       (Format.pp_print_list Term.pp)
       s.Specconv.fsg_requires Rty.pp s.Specconv.fsg_ret
       (Format.pp_print_list (fun fmt (i, t) ->
            Format.fprintf fmt "%d->%a" i Rty.pp t))
       s.Specconv.fsg_ensures)

let struct_env_fingerprint (senv : Rty.struct_env) : string =
  let infos =
    Hashtbl.fold (fun _ si acc -> si :: acc) senv []
    |> List.sort (fun a b -> String.compare a.Rty.si_name b.Rty.si_name)
  in
  hex
    (Format.asprintf "%a"
       (Format.pp_print_list (fun fmt si ->
            Format.fprintf fmt "%s|%a|%a|inv:%a;" si.Rty.si_name
              pp_sorted_binders si.Rty.si_params
              (Format.pp_print_list (fun fmt (f, t) ->
                   Format.fprintf fmt "%s:%a," f Rty.pp t))
              si.Rty.si_fields
              (Format.pp_print_option Term.pp)
              si.Rty.si_invariant))
       infos)

(* The last qualifier set fingerprinted, with its fingerprint. Every
   request keys under the same immutable [Qualifier.default], so the
   list's identity is the memo key, and the string is computed once per
   process, on first use (not at start-up, which every CLI run would
   pay). An [Atomic.t], not a [Lazy.t]: two session domains may ask at
   once, and forcing one lazy value from two domains raises
   [Lazy.Undefined]; racing domains compute the same string. *)
let last_quals : (Qualifier.t list * string) option Atomic.t = Atomic.make None

let qualifiers_fingerprint (qs : Qualifier.t list) : string =
  match Atomic.get last_quals with
  | Some (qs', fp) when qs' == qs -> fp
  | _ ->
      let fp =
        hex
          (Format.asprintf "%a|limit:%d"
             (Format.pp_print_list Qualifier.pp)
             qs
             Qualifier.multi_wildcard_scope_limit)
      in
      Atomic.set last_quals (Some (qs, fp));
      fp

(** A function's Prusti-side interface: plain types plus contract. *)
let contract_fingerprint (fd : Ast.fn_def) : string =
  hex
    (Format.asprintf "%s|%a|ret:%a|req:%a|ens:%a|trusted:%b" fd.Ast.fn_name
       (Format.pp_print_list (fun fmt (x, t) ->
            Format.fprintf fmt "%s:%a;" x Ast.pp_ty t))
       fd.Ast.fn_params Ast.pp_ty fd.Ast.fn_ret
       (Format.pp_print_list Ast.pp_expr)
       fd.Ast.fn_contract.Ast.c_requires
       (Format.pp_print_list Ast.pp_expr)
       fd.Ast.fn_contract.Ast.c_ensures fd.Ast.fn_trusted)

(** Direct callees of a body, sorted and deduplicated — modular
    checking consults exactly their signatures, no deeper. *)
let callees (b : Ir.body) : string list =
  Array.fold_left
    (fun acc blk ->
      match blk.Ir.term with
      | Ir.TCall { tc_func; _ } -> tc_func :: acc
      | _ -> acc)
    [] b.Ir.mb_blocks
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* [fp f] is the fingerprint of callee [f]'s signature, if it has one. *)
let callee_material fp names =
  List.map
    (fun f ->
      match fp f with
      | Some x -> f ^ "=" ^ x
      (* no user signature: semantics are built in (e.g. [RVec::*]),
         covered by the version salt *)
      | None -> f ^ "=builtin")
    names

(* {!flux_key} over [sig_fp], which maps a function name to the
   fingerprint of its signature, if it has one. *)
let flux_key_fp ~config ~senv_fp ~quals_fp ~sig_fp (fd : Ast.fn_def)
    (body : Ir.body) : string =
  let own =
    match sig_fp fd.Ast.fn_name with Some fp -> fp | None -> "default"
  in
  hex
    (String.concat "\n"
       ([ version; "flux"; config; senv_fp; quals_fp; own;
          body_fingerprint body ]
       @ callee_material sig_fp (callees body)))

(** Cache key for one Flux per-function check. [config] captures the
    flag state the check runs under (underflow checking, slicing);
    [lookup] resolves callee names the way the checker will. *)
let flux_key ~(config : string) ~(senv_fp : string) ~(quals_fp : string)
    ~(lookup : string -> Specconv.fsig option) (fd : Ast.fn_def)
    (body : Ir.body) : string =
  flux_key_fp ~config ~senv_fp ~quals_fp
    ~sig_fp:(fun f -> Option.map fsig_fingerprint (lookup f))
    fd body

(** The checkable functions of [prog] — untrusted, with a body — in
    declaration order, each with its {!flux_key} under [config] and the
    default qualifier set when [keyed]. The one key path of check and
    lint requests: the struct environment and each signature are
    fingerprinted once per program, not once per caller. *)
let program_keys ~(keyed : bool) ~(config : string) (genv : Genv.t)
    (prog : Ast.program) : (Ast.fn_def * Ir.body * string option) list =
  let key =
    if not keyed then fun _ _ -> None
    else begin
      let senv_fp = struct_env_fingerprint genv.Genv.senv
      and quals_fp = qualifiers_fingerprint Qualifier.default
      and sigs = Hashtbl.create 16 in
      let sig_fp f =
        match Hashtbl.find_opt sigs f with
        | Some fp -> fp
        | None ->
            let fp = Option.map fsig_fingerprint (Genv.find_sig genv f) in
            Hashtbl.add sigs f fp;
            fp
      in
      fun fd body -> Some (flux_key_fp ~config ~senv_fp ~quals_fp ~sig_fp fd body)
    end
  in
  List.filter_map
    (fun (fd : Ast.fn_def) ->
      if fd.Ast.fn_trusted then None
      else
        Option.map
          (fun body -> (fd, body, key fd body))
          (Genv.find_body genv fd.Ast.fn_name))
    (Ast.program_fns prog)

(** The digest a source's key list is memoised under: the MD5 of the
    source text, salted with everything else {!program_keys} reads — the
    [tool], the [config] salt, [keyed = true] and {!version} (the
    qualifier set is {!Flux_fixpoint.Qualifier.default} in every
    request). The source is hashed on its own, so no salted copy of it
    is allocated. *)
let source_digest ~(tool : string) ~(config : string) (src : string) : string
    =
  hex
    (String.concat "\n"
       [ version; "source"; tool; config; "keyed"; Digest.string src ])

(** Cache key for one WP (Prusti-baseline) per-function check. *)
let wp_key ~(config : string) ~(lookup : string -> Ast.fn_def option)
    (fd : Ast.fn_def) (body : Ir.body) : string =
  hex
    (String.concat "\n"
       ([ version; "wp"; config; contract_fingerprint fd;
          body_fingerprint body ]
       @ callee_material
           (fun f -> Option.map contract_fingerprint (lookup f))
           (callees body)))

(** Cache key for one SCC slice of a function's fixpoint computation.
    [fp] is {!Flux_fixpoint.Solve.slice_fingerprint} — κ declarations,
    clauses, and the final solutions of external κs — so a spec edit
    re-keys only the slices downstream of the κs it actually changed;
    everything a slice's solve reads is covered by [fp], the qualifier
    set, and the flag state. *)
let slice_key ~(config : string) ~(quals_fp : string) (fp : string) : string =
  hex (String.concat "\n" [ version; "slice"; config; quals_fp; fp ])

(* ------------------------------------------------------------------ *)
(* The on-disk store                                                   *)
(* ------------------------------------------------------------------ *)

let path dir key = Filename.concat dir (key ^ ".entry")

(** [mkdir_p dir]: create [dir] and any missing parents. Re-raises the
    first {!Unix.Unix_error} other than [EEXIST] (surfaced by
    {!ensure_dir} as a readable diagnostic). *)
let rec mkdir_p (dir : string) : unit =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** [ensure_dir dir]: create the cache directory (with parents) if it
    is missing and check, without writing to it, that it is a directory
    this process may create files in; returns a human-readable reason on
    failure. Every CLI run and every daemon request calls this, and
    degrades to uncached verification with a clear warning instead of
    the silent no-op (or raw [Sys_error]) a bad [--cache-dir] used to
    produce — e.g. a daemon started under a read-only home. On a warm
    request it costs one [stat] and one [access]. *)
let ensure_dir (dir : string) : (unit, string) result =
  match
    try Unix.stat dir
    with Unix.Unix_error (Unix.ENOENT, _, _) ->
      mkdir_p dir;
      Unix.stat dir
  with
  | exception Unix.Unix_error (e, _, at) ->
      Error
        (Printf.sprintf "cannot create cache directory `%s' (%s: %s)" dir at
           (Unix.error_message e))
  | { Unix.st_kind = Unix.S_DIR; _ } -> (
      match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cache directory `%s' is not writable (%s)" dir
               (Unix.error_message e)))
  | _ -> Error (Printf.sprintf "cache directory `%s' is not a directory" dir)

(** Read one marshalled value; any failure (missing file, short read,
    wrong type tag from an old executable) degrades to a miss. *)
let read_marshalled : 'a. string -> 'a option =
 fun file ->
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Marshal.from_channel ic with
          | e -> Some e
          | exception _ -> None)

(* Numbers the temp files of this process's writers. *)
let writes = Atomic.make 0

(** Write one marshalled value atomically (temp file + rename), never
    raising: a full disk or permission flip degrades to not caching.
    Each write has its own temp file, so domains of one process writing
    one key never share one. *)
let write_marshalled : 'a. string -> 'a -> unit =
 fun file v ->
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ())
      (Atomic.fetch_and_add writes 1)
  in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
      let written =
        match Marshal.to_channel oc v [] with
        | () ->
            close_out_noerr oc;
            true
        | exception _ ->
            close_out_noerr oc;
            false
      in
      if written then ( try Sys.rename tmp file with Sys_error _ -> ())
      else ( try Sys.remove tmp with Sys_error _ -> ())

let disk_load ~(dir : string) (key : string) : entry option =
  (read_marshalled (path dir key) : entry option)

(** Tiered lookup: memory first (when installed), then disk; a disk hit
    is promoted into the memory tier. Per-tier hits are counted in the
    profile ([cache.mem_hits] / [cache.disk_hits]) for the daemon's
    metrics. *)
let load ~(dir : string) (key : string) : entry option =
  match !memory_tier with
  | None -> (
      match disk_load ~dir key with
      | Some e ->
          Profile.incr "cache.disk_hits";
          Some e
      | None -> None)
  | Some m -> (
      match m.t_load key with
      | Some e ->
          Profile.incr "cache.mem_hits";
          Some e
      | None -> (
          match disk_load ~dir key with
          | Some e ->
              Profile.incr "cache.disk_hits";
              m.t_store key e;
              Some e
          | None -> None))

let store ~(dir : string) (key : string) (e : entry) : unit =
  (match !memory_tier with Some m -> m.t_store key e | None -> ());
  (try mkdir_p dir with Unix.Unix_error _ -> ());
  write_marshalled (path dir key) e

(** The key list memoised under a {!source_digest}; [None] without a
    memory tier (CLI runs keep no memo). *)
let keys_load (digest : string) : (string * string) list option =
  match !memory_tier with Some m -> m.t_keys_load digest | None -> None

let keys_store (digest : string) (keys : (string * string) list) : unit =
  match !memory_tier with Some m -> m.t_keys_store digest keys | None -> ()

let memoising () = Option.is_some !memory_tier

(* ------------------------------------------------------------------ *)
(* The per-slice store                                                 *)
(* ------------------------------------------------------------------ *)

(* Slice entries live beside the whole-function entries under their own
   suffix; they are disk-only (no memory tier — the daemon's warm path
   is the whole-function entry, which subsumes every slice). Per-tier
   traffic is counted by the engine as [cache.slice_hits] /
   [cache.slice_misses]. *)

let slice_path dir key = Filename.concat dir (key ^ ".slice")

let slice_load ~(dir : string) (key : string) : slice_entry option =
  (read_marshalled (slice_path dir key) : slice_entry option)

let slice_store ~(dir : string) (key : string) (e : slice_entry) : unit =
  (try mkdir_p dir with Unix.Unix_error _ -> ());
  write_marshalled (slice_path dir key) e
