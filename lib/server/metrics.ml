(** Aggregate daemon metrics, served by the [metrics] request.

    Three ingredients:

    - request accounting kept here: requests served (check/lint work
      requests only — [status]/[metrics]/[shutdown] are control
      traffic), per-method counts, and a bounded ring of request
      latencies from which p50/p95/p99 are computed by nearest rank
      over the retained window (the most recent {!ring_cap} requests);
    - verifier counters absorbed from {!Flux_smt.Profile}: each session
      resets its domain-local profile per request and feeds the
      snapshot here, so totals like [solver.queries],
      [engine.cache_hits], [cache.mem_hits], [cache.disk_hits],
      [cache.source_hits], [cache.source_misses] and
      [cache.source_parsed] accumulate across
      every request the daemon ever served. CI's
      zero-SMT-on-warm assertion is a delta of [solver.queries]
      between two [metrics] calls;
    - [daemon.conn_errors], among the counters: sessions that ended on
      an exception (a client gone mid-request, a failed reply write).

    All entry points take the mutex; sessions on different domains
    record concurrently. *)

let ring_cap = 4096

type t = {
  mu : Mutex.t;
  mutable served : int;
  by_method : (string, int) Hashtbl.t;
  ring : float array;  (** last [ring_cap] request latencies, seconds *)
  mutable recorded : int;  (** total latencies ever recorded *)
  counters : (string, int) Hashtbl.t;  (** absorbed profile counts *)
  timers : (string, float) Hashtbl.t;  (** absorbed profile seconds *)
}

let create () : t =
  {
    mu = Mutex.create ();
    served = 0;
    by_method = Hashtbl.create 8;
    ring = Array.make ring_cap 0.;
    recorded = 0;
    counters = Hashtbl.create 32;
    timers = Hashtbl.create 32;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let bump tbl k n =
  Hashtbl.replace tbl k (Option.value (Hashtbl.find_opt tbl k) ~default:0 + n)

(** Record one completed work request: its method name, wall-clock
    latency, and the per-request profile snapshot
    ({!Flux_smt.Profile.snapshot} taken after a per-request reset). *)
let record (t : t) ~(meth : string) ~(latency_s : float)
    ~(profile : (string * (int * float * bool)) list) : unit =
  locked t (fun () ->
      t.served <- t.served + 1;
      bump t.by_method meth 1;
      t.ring.(t.recorded mod ring_cap) <- latency_s;
      t.recorded <- t.recorded + 1;
      List.iter
        (fun (k, (n, time, timed)) ->
          if timed then
            Hashtbl.replace t.timers k
              (Option.value (Hashtbl.find_opt t.timers k) ~default:0. +. time)
          else if n <> 0 then bump t.counters k n)
        profile)

(** Count a session that ended on an exception rather than a clean
    close, as [daemon.conn_errors]. *)
let conn_error (t : t) : unit =
  locked t (fun () -> bump t.counters "daemon.conn_errors" 1)

let served (t : t) : int = locked t (fun () -> t.served)

(** Nearest-rank percentile over a sorted window; [p] in [0,100]. *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_assoc tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json (t : t) : Json.t =
  locked t (fun () ->
      let window = min t.recorded ring_cap in
      let lats = Array.sub t.ring 0 window in
      Array.sort Float.compare lats;
      let ms p = Json.Float (1000. *. percentile lats p) in
      Json.Obj
        [
          ("requests_served", Json.Int t.served);
          ("by_method", Json.Obj (sorted_assoc t.by_method (fun n -> Json.Int n)));
          ( "latency",
            Json.Obj
              [
                ("count", Json.Int t.recorded);
                ("window", Json.Int window);
                ("p50_ms", ms 50.);
                ("p95_ms", ms 95.);
                ("p99_ms", ms 99.);
              ] );
          ("counters", Json.Obj (sorted_assoc t.counters (fun n -> Json.Int n)));
          ( "timers_s",
            Json.Obj (sorted_assoc t.timers (fun s -> Json.Float s)) );
        ])
