(** The daemon workloads, [daemon-read] and [daemon-mixed]: closed-loop
    request streams from this process to a resident fluxd.

    fluxd ([flux daemon start --foreground]) runs on every CPU the
    benchmark was given; this process, the client, stays on one (see
    {!Cpu}). fluxd is primed with a cold check of every read input;
    each reply must then be byte-identical to what in-process
    [Exec.run] renders for the same request. [daemon-read] keeps two
    reader connections busy. [daemon-mixed] keeps one reader and one
    writer connection busy; the writer re-sends failing mutants, which
    are never cached and so are re-solved each time, and the reader's
    session domain shares fluxd's CPUs and stop-the-world minor
    collections with that solving session.

    An untraced run sets up [setups] times, each a fresh fluxd on an
    emptied cache primed cold, and each fluxd then serves an equal part
    of the window: one fluxd process can sit 10-20% off the others for its
    whole life, so the metrics are medians over the parts. Traffic runs
    in [slice_s] slices with the machine's speed measured between them,
    while fluxd is idle (see {!Calib}). *)

module Json = Flux_server.Json
module Exec = Flux_server.Exec
module Protocol = Flux_server.Protocol
module Client = Flux_server.Client
module Daemon = Flux_server.Daemon
module Memcache = Flux_server.Memcache

let flux_bin () =
  List.fold_left Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    [ "bin"; "flux.exe" ]

let setups = 3
let warmup_s = 0.5
let slice_s = 1.0

type request = { input : Inputs.t; payload : string; mutable expected : string }

type conn = {
  fd : Unix.file_descr;
  reader : bool;
  rng : Random.State.t;
  requests : request list;
  mutable queue : request list;
  mutable inflight : (request * float) option;
  mutable round_start : float;
  mutable dead : bool;
}

(** What one slice recorded, in raw seconds. *)
type slice = {
  mutable read_lat : float list;
  mutable rounds : float list;  (** reader rounds: every read input once *)
}

let fail = Pass.fail

(** Compare a reply with the in-process rendering of its request;
    [false] when the connection is lost. *)
let check_reply l (r : request) (reply : Protocol.read_outcome) : bool =
  let name = r.input.Inputs.name in
  match reply with
  | Protocol.Frame p when p = r.expected -> true
  | Protocol.Frame p ->
      (match Protocol.decode_response p with
      | Ok (Protocol.Result { code; _ }) ->
          fail l "%s: daemon reply differs from in-process Exec.run (exit %d)"
            name code
      | Ok (Protocol.Error msg) -> fail l "%s: daemon error: %s" name msg
      | Ok (Protocol.Info _) -> fail l "%s: unexpected info reply" name
      | Error e -> fail l "%s: undecodable reply: %s" name e);
      true
  | Protocol.Eof | Protocol.Bad _ ->
      fail l "%s: connection lost" name;
      false

let send (l : Pass.ledger) c now =
  match c.queue with
  | [] -> ()
  | r :: rest -> (
      c.queue <- rest;
      l.Pass.attempted <- l.Pass.attempted + 1;
      match Protocol.write_frame c.fd r.payload with
      | () -> c.inflight <- Some (r, now)
      | exception Unix.Unix_error (e, _, _) ->
          fail l "%s: send failed: %s" r.input.Inputs.name (Unix.error_message e);
          c.dead <- true)

let new_round c now =
  c.queue <- Inputs.shuffle c.rng c.requests;
  c.round_start <- now

(** Keep every connection busy, each starting a fresh round, until
    [duration] has passed; then wait for the replies in flight. *)
let drive l conns ~duration : slice =
  let s = { read_lat = []; rounds = [] } in
  let t0 = Unix.gettimeofday () in
  let until = t0 +. duration in
  List.iter
    (fun c ->
      if not c.dead then begin
        new_round c t0;
        send l c t0
      end)
    conns;
  let rec loop () =
    let busy = List.filter (fun c -> c.inflight <> None && not c.dead) conns in
    if busy <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] 0.05
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            let r, sent = Option.get c.inflight in
            c.inflight <- None;
            let reply =
              try Protocol.read_frame c.fd
              with Unix.Unix_error (e, _, _) -> Protocol.Bad (Unix.error_message e)
            in
            let now = Unix.gettimeofday () in
            if not (check_reply l r reply) then c.dead <- true
            else begin
              if c.reader then s.read_lat <- (now -. sent) :: s.read_lat;
              if c.queue = [] then begin
                if c.reader then s.rounds <- (now -. c.round_start) :: s.rounds;
                new_round c now
              end;
              if now < until then send l c now
            end
          end)
        busy;
      loop ()
    end
  in
  loop ();
  s

let metrics_counters ~socket : (string * int) list =
  match Client.roundtrip ~socket Protocol.Metrics with
  | Ok (Protocol.Info j) ->
      let counters =
        match Json.member "counters" j with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.get_int v))
              kvs
        | _ -> []
      in
      ( "requests_served",
        Option.value ~default:0
          (Option.bind (Json.member "requests_served" j) Json.get_int) )
      :: counters
  | _ -> failwith "perfbench: daemon metrics request failed"

(** Start fluxd on the whole CPU set and wait until its socket answers;
    its pid. *)
let start_daemon ~socket ~log : int =
  let flux = flux_bin () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Cpu.unpinned (fun () ->
        Child.spawn flux
          [| flux; "daemon"; "start"; "--foreground"; "--socket"; socket |]
          ~stdout:log ~stderr:log)
  in
  let rec poll () =
    match Daemon.try_connect socket with
    | Some fd -> Unix.close fd
    | None -> (
        match Child.poll pid with
        | Some c -> failwith (Printf.sprintf "perfbench: fluxd exited %d" c)
        | None when Unix.gettimeofday () -. t0 > 10. ->
            failwith "perfbench: fluxd did not answer within 10 s"
        | None ->
            Unix.sleepf 0.002;
            poll ())
  in
  poll ();
  pid

type result = {
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  setups : float list;  (** nominal seconds *)
}

(** What one fluxd process did: its set-up and its part of the window. *)
type part = {
  setup_s : float;  (** start until its socket answers, plus priming *)
  slices : (slice * float) list;  (** with the factor to nominal time *)
  deltas : string -> int;  (** fluxd's metrics counters over the part *)
  rss_mb : float;
}

let run ~workload ~seed ~seconds ~trace ~work : result =
  let mixed = workload = "daemon-mixed" in
  (* fluxd, and so every span timed here, runs on every CPU *)
  let cpus = match Cpu.all () with [] -> [ -1 ] | cs -> cs in
  Flux_engine.Cache.mkdir_p work;
  let socket = Filename.concat work "fluxd.sock" in
  let pidfile = Daemon.pidfile_of socket in
  let log =
    Unix.openfile
      (Filename.concat work "fluxd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let cache_dir = Filename.concat (Sys.getcwd ()) (Filename.concat work "cache") in
  let opts =
    { (Exec.default_opts Exec.Flux_check) with Exec.jobs = 1; cache_dir }
  in
  let l = Pass.ledger () in
  let request (i : Inputs.t) =
    {
      input = i;
      payload =
        Protocol.encode_request
          (Protocol.Check
             {
               opts;
               file = i.Inputs.name ^ ".rs";
               source = Some i.Inputs.src;
               deadline_ms = None;
             });
      expected = "";
    }
  in
  let reads = List.map request (Inputs.primed ()) in
  let writes = if mixed then List.map request (Inputs.mutants ()) else [] in
  let connect () =
    match Daemon.try_connect socket with
    | Some fd -> fd
    | None -> failwith "perfbench: cannot connect to fluxd"
  in
  (* Every read input once, in a fixed order, so that what fluxd holds
     afterwards does not depend on the seed. *)
  let prime () =
    let fd = connect () in
    List.iter
      (fun r ->
        l.Pass.attempted <- l.Pass.attempted + 1;
        Protocol.write_frame fd r.payload;
        match Protocol.read_frame fd with
        | Protocol.Frame p -> (
            match Protocol.decode_response p with
            | Ok (Protocol.Result { code = 0; _ }) -> ()
            | _ -> fail l "%s: priming check did not verify" r.input.Inputs.name)
        | _ -> fail l "%s: priming reply lost" r.input.Inputs.name)
      reads;
    Unix.close fd
  in
  (* The reference rendering of every request, in-process, against the
     cache the priming filled. *)
  let reference () =
    List.iter
      (fun r ->
        let o =
          Exec.run opts
            ~file:(r.input.Inputs.name ^ ".rs")
            ~read:(fun () -> r.input.Inputs.src)
        in
        let want = if r.input.Inputs.expect = Inputs.Verifies then 0 else 1 in
        if o.Exec.code <> want then
          fail l "%s: in-process Exec.run exited %d" r.input.Inputs.name
            o.Exec.code;
        r.expected <-
          Protocol.encode_response
            (Protocol.Result
               { code = o.Exec.code; out = o.Exec.out; err = o.Exec.err }))
      (reads @ writes)
  in
  let stop pid =
    ignore (Client.roundtrip ~socket Protocol.Shutdown);
    if Child.wait ~timeout:10. pid <> 0 then fail l "fluxd did not stop cleanly";
    if Sys.file_exists socket || Sys.file_exists pidfile then
      fail l "fluxd left its socket or pidfile behind"
  in
  (* a traced run reports no set-up time, so one set-up serves it *)
  let window_s, n_parts =
    if trace then (Float.max 1. (seconds /. 2.), 1) else (seconds, setups)
  in
  let part_len = window_s /. float_of_int n_parts in
  let n_slices = max 1 (int_of_float (Float.round (part_len /. slice_s))) in
  let parts =
    List.init n_parts (fun i ->
        Pass.rm_rf cache_dir;
        let (pid, raw), k =
          Calib.span ~cpus (fun () ->
              let t0 = Unix.gettimeofday () in
              let pid = start_daemon ~socket ~log in
              prime ();
              (pid, Unix.gettimeofday () -. t0))
        in
        let setup_s = raw *. k in
        if i = 0 then reference ();
        let conn c ~reader requests =
          {
            fd = connect ();
            reader;
            rng = Random.State.make [| seed; i; c |];
            requests;
            queue = [];
            inflight = None;
            round_start = 0.;
            dead = false;
          }
        in
        let first = conn 0 ~reader:true reads in
        let second =
          if mixed then conn 1 ~reader:false writes else conn 1 ~reader:true reads
        in
        let conns = [ first; second ] in
        ignore (drive l conns ~duration:warmup_s);
        let before = metrics_counters ~socket in
        let slices =
          List.init n_slices (fun _ ->
              Calib.span ~cpus (fun () ->
                  drive l conns ~duration:(part_len /. float_of_int n_slices)))
        in
        let after = metrics_counters ~socket in
        let rss_mb = Pass.peak_rss_mb (string_of_int pid) in
        List.iter (fun c -> Unix.close c.fd) conns;
        stop pid;
        let deltas key =
          Option.value ~default:0 (List.assoc_opt key after)
          - Option.value ~default:0 (List.assoc_opt key before)
        in
        { setup_s; slices; deltas; rss_mb })
  in
  Unix.close log;
  let delta key = List.fold_left (fun n p -> n + p.deltas key) 0 parts in
  let smt_queries = delta "solver.queries" in
  if (not mixed) && smt_queries <> 0 then
    fail l "warm reads reached the solver (%d queries)" smt_queries;
  let nominal f p =
    List.concat_map
      (fun (s, k) -> List.map (fun x -> Report.ms (x *. k)) (f s))
      p.slices
  in
  let rounds = List.map (nominal (fun s -> s.rounds)) parts in
  let lats = List.map (nominal (fun s -> s.read_lat)) parts in
  let end_to_end =
    [
      Report.metric "round_ms" "ms"
        (Stats.median (List.map Stats.median rounds))
        ~samples:(List.concat rounds);
      Report.metric "p90_ms" "ms"
        (Stats.median (List.map (Stats.percentile 90.) lats))
        ~samples:(List.concat lats);
      Report.metric "peak_rss_mb" "MB"
        (Stats.median (List.map (fun p -> p.rss_mb) parts))
        ~samples:(List.map (fun p -> p.rss_mb) parts);
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      (* In-process replays, with fluxd stopped. Cold: what a write
         re-solves (daemon-mixed), or the priming pass (daemon-read,
         whose reads never reach the solver). Warm: the read requests,
         against a memory tier filled from the daemon's disk cache. *)
      let cold_inputs =
        List.map (fun r -> r.input) (if mixed then writes else reads)
      in
      let rng = Random.State.make [| seed |] in
      let deadline = Unix.gettimeofday () +. (seconds /. 2.) in
      let untraced = ref [] and traced = ref [] in
      let n = ref 0 and pair_s = ref 0. in
      while !traced = [] || Unix.gettimeofday () +. !pair_s < deadline do
        let t0 = Unix.gettimeofday () in
        let order = Inputs.shuffle rng cold_inputs in
        let pass traced =
          incr n;
          let dir_of (i : Inputs.t) =
            Filename.concat work (Printf.sprintf "replay-%d-%s" !n i.Inputs.name)
          in
          Pass.run l ~traced ~warm:false ~certify:false ~ensure_dir:false
            ~dir_of order
        in
        untraced := pass false :: !untraced;
        traced := pass true :: !traced;
        pair_s := Unix.gettimeofday () -. t0
      done;
      Memcache.install (Memcache.create ());
      let read_inputs = List.map (fun r -> r.input) reads in
      let warm traced =
        Pass.run l ~traced ~warm:true ~certify:false ~ensure_dir:true
          ~dir_of:(fun _ -> cache_dir)
          (Inputs.shuffle rng read_inputs)
      in
      ignore (warm false);
      let warm_traced = List.init 20 (fun _ -> warm true) in
      (* the next workload of this process must start without it *)
      Flux_engine.Cache.set_memory_tier None;
      Report.cold_family ~traced:(List.rev !traced) ~untraced:(List.rev !untraced)
      @ Report.warm_family ~traced:warm_traced
          ~request_walls:(List.map (fun ms -> ms /. 1000.) (List.concat rounds))
      @ Report.daemon_family ~served:(delta "requests_served") ~smt_queries
          ~mem_hits:(delta "cache.mem_hits") ~disk_hits:(delta "cache.disk_hits")
    end
  in
  {
    attempted = l.Pass.attempted;
    failed = l.Pass.failed;
    metrics = end_to_end @ per_layer;
    setups = List.map (fun p -> p.setup_s) parts;
  }
