(** The verification engine: parallel scheduling plus the persistent
    incremental cache, between the CLI/bench drivers and the checkers.

    Flux checking is modular — each function is verified against callee
    {e signatures} only — so per-function checks are independent tasks.
    The engine exploits that twice:

    - {b Parallelism}: misses run on a {!Pool} of OCaml 5 domains,
      largest estimated task first (LPT) so one heavyweight function
      does not serialize the tail of the schedule. All checker state is
      domain-local (term interning, solver and fixpoint stats,
      profiles, fresh-name counters), each per-function check resets
      its fresh-name counter, and no query memo outlives the fixpoint
      run that made it, so results — verdicts, errors, κ/clause
      counts, solver and fixpoint counters — are identical to a
      sequential run regardless of [jobs]. Worker profiles are merged
      back into the calling domain in declaration order
      ({!Flux_smt.Profile.absorb}).
      Flux checking is split finer still: constraint generation is one
      pooled phase, then the SCC slices of {e all} functions'
      κ-dependency graphs are pooled level by level
      ({!Flux_fixpoint.Solve}'s slice API), so independent SCCs of one
      heavyweight function spread across the pool instead of
      serializing on it.

    - {b Incrementality}: before scheduling, each function is probed in
      the content-addressed on-disk cache ({!Cache}); hits return the
      stored verdict/stats without generating or solving anything. A
      function-level miss (say, after a single spec edit) then probes
      per-SCC-slice: slices whose fingerprint — clauses plus the final
      solutions of the external κs they read — is unchanged replay
      their stored κ conjuncts with zero weaken checks, so only the
      slices downstream of the edited κs are re-solved.

    The engine accepts a {e list} of programs and pools all their
    functions into one schedule: for a suite (the Table-1 benchmarks),
    the makespan is governed by the single largest function rather than
    the largest per-program sum.

    Every entry point takes an optional verification [config] (default
    {!Flux_smt.Config.default}), passed down to the checkers and the
    fixpoint solver and folded into every cache key through
    {!Flux_smt.Config.fingerprint}. *)

module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Wp = Flux_wp.Wp
module Replay = Flux_cert.Replay
module Cert_store = Flux_cert.Store
open Flux_smt
open Flux_fixpoint

type config = {
  jobs : int;  (** worker domains; [<= 0] selects {!Pool.default_jobs} *)
  cache_dir : string option;  (** [None] disables the persistent cache *)
}

let default_cache_dir = ".flux-cache"
let default_config = { jobs = 0; cache_dir = Some default_cache_dir }

(** The cache salt of the default configuration. *)
let flux_config_string () = Config.fingerprint Config.default

(* ------------------------------------------------------------------ *)
(* The pooled scheduler                                                *)
(* ------------------------------------------------------------------ *)

(** Static size estimate driving the LPT schedule: constraint volume —
    and hence solving time — grows with the number of statements and
    blocks. Mis-estimates cost only schedule quality, never results. *)
let body_size (b : Ir.body) : int =
  Array.fold_left
    (fun acc blk -> acc + 1 + List.length blk.Ir.stmts)
    0 b.Ir.mb_blocks

(** Run independent checks through the domain pool, largest first,
    returning results in input order. Each task runs with a clean
    per-domain profile; the captured profiles are merged back into the
    calling domain in input order, so the aggregated profile is
    deterministic and scheduling-independent.

    [cancel] is polled at task (i.e. function) boundaries; when it
    reports [true], {!Pool.Cancelled} escapes after the in-flight
    checks finish (the daemon uses this for per-request deadlines and
    client-disconnect cancellation). *)
let run_pool ?cancel ~(jobs : int) ~(sizes : int array)
    (fns : (unit -> 'a) array) : 'a array =
  let n = Array.length fns in
  if n = 0 then [||]
  else begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (sizes.(b), a) (sizes.(a), b)) order;
    let tasks =
      Array.map
        (fun i () ->
          Profile.reset ();
          let r = fns.(i) () in
          (r, Profile.capture ()))
        order
    in
    (* The per-task resets also clear the calling domain's profile when
       running inline (jobs <= 1); save it and merge it back — also on
       the cancellation path, so an abandoned request does not wipe the
       session's accumulated profile. *)
    let outer = Profile.capture () in
    let outcomes =
      match Pool.run ?cancel ~jobs tasks with
      | o -> o
      | exception e ->
          Profile.reset ();
          Profile.absorb outer;
          raise e
    in
    Profile.reset ();
    Profile.absorb outer;
    let results = Array.make n None in
    Array.iteri (fun k i -> results.(i) <- Some outcomes.(k)) order;
    Array.init n (fun i ->
        match results.(i) with
        | Some (r, cap) ->
            Profile.absorb cap;
            r
        | None -> assert false)
  end

(* ------------------------------------------------------------------ *)
(* Flux                                                                *)
(* ------------------------------------------------------------------ *)

type fn_outcome = {
  fo_report : Checker.fn_report;
  fo_cached : bool;  (** verdict replayed from the persistent cache *)
}

type run = {
  run_fns : fn_outcome list;  (** declaration order *)
  run_hits : int;
  run_misses : int;  (** functions actually checked *)
  run_time : float;
      (** wall-clock of the engine invocation that produced this run
          (shared across the batch for {!check_programs}) *)
}

let report_of_run (r : run) : Checker.report =
  {
    Checker.rp_fns = List.map (fun o -> o.fo_report) r.run_fns;
    rp_time = r.run_time;
  }

let run_ok (r : run) = List.for_all (fun o -> Checker.fn_ok o.fo_report) r.run_fns

(* A per-function slot is either replayed from the cache or an index
   into the shared task arrays. *)
type 'r slot = Hit of 'r | Todo of int * string option

(* ------------------------------------------------------------------ *)
(* Certificates (--certify)                                            *)
(* ------------------------------------------------------------------ *)

(* Warm-path revalidation: under [--certify] a cache hit only stands if
   the certificate stored next to the verdict replays in full through
   the independent checker — no SMT queries. A missing certificate
   (e.g. the entry predates --certify) demotes the hit to a plain miss
   so the re-check can emit one; a corrupt or non-replaying certificate
   additionally counts as [cert.failed]. *)
let cert_replay_ok ~dir key : bool =
  match Cert_store.load dir key with
  | Cert_store.Missing -> false
  | Cert_store.Corrupt ->
      Profile.incr "cert.failed";
      false
  | Cert_store.Loaded entries ->
      Profile.time "cert.replay_s" @@ fun () ->
      List.for_all
        (fun (_, p) ->
          match Replay.check p with
          | Ok () ->
              Profile.incr "cert.replayed";
              true
          | Error _ ->
              Profile.incr "cert.failed";
              false)
        entries

(* Cold-path emission is all-or-nothing per function: if any clause
   resists certification (the certifying search is deliberately
   simpler than the solver and may give up), no file is written — a
   partial certificate would let a warm replay claim full coverage. *)
let save_cert_entries ~dir key (entries : (int * Proof.t) list option) : unit
    =
  match entries with
  | Some entries ->
      Cert_store.save dir key entries;
      Profile.add "cert.emitted" (List.length entries)
  | None -> Profile.incr "cert.incomplete"

let emit_flux_cert ?config ~dir key ~(kvars : Horn.kvar list)
    (sol : Solve.solution) (clauses : Horn.clause list) : unit =
  Profile.time "cert.emit_s" @@ fun () ->
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | cl :: rest -> (
        match Solver.certify (Solve.clause_query ?config ~kvars sol cl) with
        | Some p -> go ((cl.Horn.tag, p) :: acc) rest
        | None -> None)
  in
  save_cert_entries ~dir key (go [] clauses)

let emit_wp_cert ~dir key (goals : (int * Term.t) list) : unit =
  Profile.time "cert.emit_s" @@ fun () ->
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (tag, g) :: rest -> (
        match Solver.certify g with
        | Some p -> go ((tag, p) :: acc) rest
        | None -> None)
  in
  save_cert_entries ~dir key (go [] goals)

(* ------------------------------------------------------------------ *)
(* Split-phase Flux checking: slice-level pooling + per-slice cache    *)
(* ------------------------------------------------------------------ *)

(** Check the miss functions through the split-phase pipeline:
    {!Checker.prepare} pooled per function, then every function's SCC
    slices pooled level by level (dependencies first — slices of equal
    level cannot depend on each other, across functions trivially so),
    with results merged on the calling domain between levels, finally
    {!Checker.finish}. Before solving, each non-trivial slice is probed
    under its {!Flux_fixpoint.Solve.slice_fingerprint}; a hit replays
    the stored κ conjuncts without any weaken checks. Only failure-free
    slices are stored (failures carry obligation tags whose spans the
    fingerprint deliberately ignores — same policy as whole-function
    entries). Reports are byte-identical to {!Checker.check_body}'s:
    the slice schedule converges to the same strongest fixpoint, and
    {!Flux_fixpoint.Solve.finish} restores input-clause failure
    order. *)
let check_split ?cancel ~(certify : bool) (cfg : config) ~(config : Config.t)
    ~(quals_fp : string) ~(sizes : int array)
    (task_arr : (Genv.t * Ast.fn_def * Ir.body * string option) array) :
    (Checker.fn_report * (Horn.kvar list * Horn.clause list) option) array =
  let n = Array.length task_arr in
  let salt = Config.fingerprint config in
  (* Phase A: pooled constraint generation, plus solver prep (initial κ
     instantiation + dependency graph). The prep is built on whichever
     worker ran the task and only read by others afterwards: its tables
     are written exclusively by {!Solve.apply_slice} on this domain,
     between the pooled batches below. *)
  let preps =
    run_pool ?cancel ~jobs:cfg.jobs ~sizes
      (Array.map
         (fun (genv, fd, body, _) () ->
           let p = Checker.prepare genv fd body in
           if Checker.prepared_early p then (p, None, 0.0)
           else
             let t0 = Unix.gettimeofday () in
             let sp =
               Profile.with_fn fd.Ast.fn_name @@ fun () ->
               Solve.prepare ~config
                 ~kvars:(Checker.prepared_kvars p)
                 (Checker.prepared_clauses p)
             in
             (p, Some sp, Unix.gettimeofday () -. t0))
         task_arr)
  in
  (* Per-function solving wall-clock, fed to [Checker.finish] so
     [fr_time] matches a monolithic check's accounting. *)
  let solve_s = Array.map (fun (_, _, dt) -> dt) preps in
  let max_level =
    Array.fold_left
      (fun acc (_, sp, _) ->
        match sp with
        | None -> acc
        | Some p ->
            let m = ref acc in
            for s = 0 to Solve.slice_count p - 1 do
              m := max !m (Solve.slice_level p s)
            done;
            !m)
      (-1) preps
  in
  (* Phase B: one pooled batch per dependency level. *)
  for level = 0 to max_level do
    let acc = ref [] in
    Array.iteri
      (fun i (_, sp, _) ->
        match sp with
        | None -> ()
        | Some p ->
            for s = 0 to Solve.slice_count p - 1 do
              if Solve.slice_level p s = level then acc := (i, p, s) :: !acc
            done)
      preps;
    let items = Array.of_list (List.rev !acc) in
    (* Probe the slice cache. Trivial slices (nothing to weaken, no
       concrete heads) skip the disk round-trip; they still run — the
       run is a no-op — so the apply protocol stays uniform. *)
    let probes =
      Array.map
        (fun (_, p, s) ->
          match cfg.cache_dir with
          | Some dir when Solve.slice_size p s > 0 -> (
              let key =
                Cache.slice_key ~config:salt ~quals_fp
                  (Solve.slice_fingerprint p s)
              in
              match Cache.slice_load ~dir key with
              | Some e ->
                  Profile.incr "cache.slice_hits";
                  `Hit
                    {
                      Solve.sr_slice = s;
                      sr_sols = e.Cache.se_sols;
                      sr_failures = [];
                    }
              | None ->
                  Profile.incr "cache.slice_misses";
                  `Run (Some (dir, key)))
          | _ -> `Run None)
        items
    in
    let todo = ref [] in
    Array.iteri
      (fun j _ -> match probes.(j) with `Run _ -> todo := j :: !todo | `Hit _ -> ())
      probes;
    let todo = Array.of_list (List.rev !todo) in
    let slice_sizes =
      Array.map
        (fun j ->
          let _, p, s = items.(j) in
          Solve.slice_size p s)
        todo
    in
    let tasks =
      Array.map
        (fun j () ->
          let i, p, s = items.(j) in
          let _, fd, _, _ = task_arr.(i) in
          let t0 = Unix.gettimeofday () in
          let r =
            Profile.with_fn fd.Ast.fn_name @@ fun () -> Solve.run_slice p s
          in
          (r, Unix.gettimeofday () -. t0))
        todo
    in
    let solved = run_pool ?cancel ~jobs:cfg.jobs ~sizes:slice_sizes tasks in
    (* Merge in deterministic item order; store fresh clean slices. *)
    let next = ref 0 in
    Array.iteri
      (fun j (i, p, _) ->
        match probes.(j) with
        | `Hit r -> Solve.apply_slice p r
        | `Run key ->
            let r, dt = solved.(!next) in
            incr next;
            solve_s.(i) <- solve_s.(i) +. dt;
            Solve.apply_slice p r;
            (match key with
            | Some (dir, k) when r.Solve.sr_failures = [] ->
                Cache.slice_store ~dir k { Cache.se_sols = r.Solve.sr_sols }
            | _ -> ()))
      items
  done;
  (* Phase C: verdicts back to source spans (plus, under --certify, the
     constraint payload cert emission re-derives clause queries from). *)
  Array.init n (fun i ->
      let p, sp, _ = preps.(i) in
      match sp with
      | None -> (Checker.finish ~certify p None, None)
      | Some sprep ->
          ( Checker.finish ~solve_s:solve_s.(i) ~certify p
              (Some (Solve.finish sprep)),
            Some (Checker.prepared_kvars p, Checker.prepared_clauses p) ))

(** Check several programs through one shared schedule. Genvs are built
    sequentially on the calling domain and are read-only afterwards, so
    worker domains may read them concurrently. *)
let check_programs ?cancel ?(certify = false) ?(config = Config.default)
    (cfg : config) (progs : Ast.program list) : run list =
  let t0 = Unix.gettimeofday () in
  let salt = Config.fingerprint config in
  let quals_fp = Cache.qualifiers_fingerprint Qualifier.default in
  let tasks = ref [] in
  let n_tasks = ref 0 in
  let slots =
    List.map
      (fun prog ->
        let genv = Genv.build prog in
        let senv_fp =
          if cfg.cache_dir = None then ""
          else Cache.struct_env_fingerprint genv.Genv.senv
        in
        List.filter_map
          (fun (fd : Ast.fn_def) ->
            if fd.Ast.fn_trusted then None
            else
              match Genv.find_body genv fd.Ast.fn_name with
              | None -> None
              | Some body ->
                  let key =
                    Option.map
                      (fun _dir ->
                        Cache.flux_key ~config:salt ~senv_fp ~quals_fp
                          ~lookup:(Genv.find_sig genv) fd body)
                      cfg.cache_dir
                  in
                  let hit =
                    match (key, cfg.cache_dir) with
                    | Some k, Some dir -> (
                        match Cache.load ~dir k with
                        | Some _ when certify && not (cert_replay_ok ~dir k)
                          ->
                            (* verdict present but certificate missing
                               or not replaying: demote to a miss so the
                               re-check re-emits it *)
                            None
                        | Some (e : Cache.entry) ->
                            Some
                              {
                                Checker.fr_name = fd.Ast.fn_name;
                                fr_errors = [];
                                fr_solution = None;
                                fr_kvars = e.Cache.e_kvars;
                                fr_clauses = e.Cache.e_clauses;
                                fr_time = 0.0;
                              }
                        | None -> None)
                    | _ -> None
                  in
                  (match hit with
                  | Some r ->
                      Profile.incr "engine.cache_hits";
                      Some (Hit r)
                  | None ->
                      if key <> None then Profile.incr "engine.cache_misses";
                      let i = !n_tasks in
                      incr n_tasks;
                      tasks := (genv, fd, body, key) :: !tasks;
                      Some (Todo (i, key))))
          (Ast.program_fns prog))
      progs
  in
  let task_arr = Array.of_list (List.rev !tasks) in
  let sizes = Array.map (fun (_, _, body, _) -> body_size body) task_arr in
  let results =
    check_split ?cancel ~certify cfg ~config ~quals_fp ~sizes task_arr
  in
  (match cfg.cache_dir with
  | Some dir ->
      Array.iteri
        (fun i (_, _, _, key) ->
          match key with
          | Some k when Checker.fn_ok (fst results.(i)) ->
              let r, payload = results.(i) in
              Cache.store ~dir k
                {
                  Cache.e_kvars = r.Checker.fr_kvars;
                  e_clauses = r.Checker.fr_clauses;
                  e_time = r.Checker.fr_time;
                };
              if certify then begin
                match (payload, r.Checker.fr_solution) with
                | Some (kvars, clauses), Some sol ->
                    emit_flux_cert ~config ~dir k ~kvars sol clauses
                | _ -> ()
              end
          | _ -> ())
        task_arr
  | None -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  List.map
    (fun prog_slots ->
      let fns =
        List.map
          (function
            | Hit r -> { fo_report = r; fo_cached = true }
            | Todo (i, _) ->
                { fo_report = fst results.(i); fo_cached = false })
          prog_slots
      in
      let hits =
        List.length (List.filter (fun o -> o.fo_cached) fns)
      in
      {
        run_fns = fns;
        run_hits = hits;
        run_misses = List.length fns - hits;
        run_time = elapsed;
      })
    slots

let check_program_ast ?cancel ?certify ?config (cfg : config)
    (prog : Ast.program) : run =
  match check_programs ?cancel ?certify ?config cfg [ prog ] with
  | [ r ] -> r
  | _ -> assert false

let check_source ?cancel ?certify ?config (cfg : config) (src : string) : run
    =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  check_program_ast ?cancel ?certify ?config cfg prog

(* ------------------------------------------------------------------ *)
(* WP (Prusti baseline)                                                *)
(* ------------------------------------------------------------------ *)

type wp_outcome = { wo_report : Wp.fn_report; wo_cached : bool }

type wp_run = {
  wr_fns : wp_outcome list;
  wr_hits : int;
  wr_misses : int;
  wr_time : float;
}

let wp_report_of_run (r : wp_run) : Wp.report =
  {
    Wp.rp_fns = List.map (fun o -> o.wo_report) r.wr_fns;
    rp_time = r.wr_time;
  }

let wp_run_ok (r : wp_run) = List.for_all (fun o -> Wp.fn_ok o.wo_report) r.wr_fns

let verify_programs ?cancel ?(certify = false) ?(config = Config.default)
    (cfg : config) (progs : Ast.program list) : wp_run list =
  let t0 = Unix.gettimeofday () in
  let salt = Config.fingerprint config in
  let tasks = ref [] in
  let n_tasks = ref 0 in
  let slots =
    List.map
      (fun prog ->
        let bodies = Flux_mir.Lower.lower_program prog in
        List.filter_map
          (fun (fd : Ast.fn_def) ->
            if fd.Ast.fn_trusted then None
            else
              match List.assoc_opt fd.Ast.fn_name bodies with
              | None -> None
              | Some body ->
                  let key =
                    Option.map
                      (fun _dir ->
                        Cache.wp_key ~config:salt ~lookup:(Ast.find_fn prog)
                          fd body)
                      cfg.cache_dir
                  in
                  let hit =
                    match (key, cfg.cache_dir) with
                    | Some k, Some dir -> (
                        match Cache.load ~dir k with
                        | Some _ when certify && not (cert_replay_ok ~dir k)
                          ->
                            None
                        | Some (e : Cache.entry) ->
                            Some
                              {
                                Wp.fr_name = fd.Ast.fn_name;
                                fr_errors = [];
                                fr_vcs = e.Cache.e_clauses;
                                fr_time = 0.0;
                                fr_goals = [];
                              }
                        | None -> None)
                    | _ -> None
                  in
                  (match hit with
                  | Some r ->
                      Profile.incr "engine.cache_hits";
                      Some (Hit r)
                  | None ->
                      if key <> None then Profile.incr "engine.cache_misses";
                      let i = !n_tasks in
                      incr n_tasks;
                      tasks := (prog, fd, body, key) :: !tasks;
                      Some (Todo (i, key))))
          (Ast.program_fns prog))
      progs
  in
  let task_arr = Array.of_list (List.rev !tasks) in
  let sizes = Array.map (fun (_, _, body, _) -> body_size body) task_arr in
  let fns =
    Array.map
      (fun (prog, fd, body, _) () ->
        Wp.verify_body ~config ~certify prog fd body)
      task_arr
  in
  let results = run_pool ?cancel ~jobs:cfg.jobs ~sizes fns in
  (match cfg.cache_dir with
  | Some dir ->
      Array.iteri
        (fun i (_, _, _, key) ->
          match key with
          | Some k when Wp.fn_ok results.(i) ->
              let r = results.(i) in
              Cache.store ~dir k
                {
                  Cache.e_kvars = 0;
                  e_clauses = r.Wp.fr_vcs;
                  e_time = r.Wp.fr_time;
                };
              if certify then emit_wp_cert ~dir k r.Wp.fr_goals
          | _ -> ())
        task_arr
  | None -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  List.map
    (fun prog_slots ->
      let fns =
        List.map
          (function
            | Hit r -> { wo_report = r; wo_cached = true }
            | Todo (i, _) -> { wo_report = results.(i); wo_cached = false })
          prog_slots
      in
      let hits = List.length (List.filter (fun o -> o.wo_cached) fns) in
      {
        wr_fns = fns;
        wr_hits = hits;
        wr_misses = List.length fns - hits;
        wr_time = elapsed;
      })
    slots

let verify_program_ast ?cancel ?certify ?config (cfg : config)
    (prog : Ast.program) : wp_run =
  match verify_programs ?cancel ?certify ?config cfg [ prog ] with
  | [ r ] -> r
  | _ -> assert false

let verify_source ?cancel ?certify ?config (cfg : config) (src : string) :
    wp_run =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  verify_program_ast ?cancel ?certify ?config cfg prog
