(** One Flux check of one source, untraced or traced.

    Untraced is exactly what a user runs: [Engine.check_source] at
    [jobs = 1]. Traced replays the call sequence of
    [Engine.check_programs]/[Engine.check_split] at [jobs = 1] through
    the layers' public functions and times each call from outside, so
    the verifier itself carries no spans. A call's SMT time (the
    [solver.solve_s] profile cell, read before and after) is charged to
    the smt layer and the rest of the call to the caller's layer, so
    the layer times are self times and add up to the traced wall
    clock. *)

module Ast = Flux_syntax.Ast
module Profile = Flux_smt.Profile
module Solver = Flux_smt.Solver
module Term = Flux_smt.Term
module Engine = Flux_engine.Engine
module Cache = Flux_engine.Cache
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Solve = Flux_fixpoint.Solve
module Qualifier = Flux_fixpoint.Qualifier
module Discharge = Flux_absint.Discharge

type layer =
  | Syntax  (** parse + typecheck *)
  | Genv_build  (** lowering and signature resolution *)
  | Cache_key  (** function and slice fingerprints *)
  | Cache_io  (** verdict/slice cache loads and stores *)
  | Check_prepare  (** constraint generation *)
  | Fixpoint_prepare  (** initial κ instantiation, dependency graph *)
  | Fixpoint_self  (** weakening and final checks, less SMT time *)
  | Smt  (** [solver.solve_s] *)
  | Check_finish  (** verdicts to reports, counterexamples, certificates *)

let layers =
  [
    (Syntax, "syntax");
    (Genv_build, "genv");
    (Cache_key, "cache_key");
    (Cache_io, "cache_io");
    (Check_prepare, "check_prepare");
    (Fixpoint_prepare, "fixpoint_prepare");
    (Fixpoint_self, "fixpoint_self");
    (Smt, "smt_solve");
    (Check_finish, "check_finish");
  ]

let index = function
  | Syntax -> 0
  | Genv_build -> 1
  | Cache_key -> 2
  | Cache_io -> 3
  | Check_prepare -> 4
  | Fixpoint_prepare -> 5
  | Fixpoint_self -> 6
  | Smt -> 7
  | Check_finish -> 8

(** Self seconds per layer, indexed by {!index}. *)
type trace = float array

let new_trace () : trace = Array.make (List.length layers) 0.

let solve_s () =
  match Hashtbl.find_opt (Profile.state ()).Profile.global "solver.solve_s" with
  | Some c -> c.Profile.time
  | None -> 0.

let timed (tr : trace) layer f =
  let s0 = solve_s () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 and ds = solve_s () -. s0 in
  tr.(index layer) <- tr.(index layer) +. dt -. ds;
  tr.(index Smt) <- tr.(index Smt) +. ds;
  r

(** Forget every cross-check cache and counter, as a fresh [flux check]
    process would start. *)
let fresh () =
  Solver.clear_cache ();
  Solver.reset_stats ();
  Solve.reset_stats ();
  Discharge.reset ();
  Term.reset_intern ();
  Profile.reset ()

let engine ~dir ~certify src : Engine.run =
  Engine.check_source ~certify { Engine.jobs = 1; cache_dir = Some dir } src

(* Pool order at jobs = 1: largest first, ties by index (Engine.run_pool). *)
let lpt_order sizes =
  let order = Array.init (Array.length sizes) Fun.id in
  Array.sort (fun a b -> compare (sizes.(b), a) (sizes.(a), b)) order;
  order

(** The traced replay of {!engine}. [ensure_dir] adds the cache-dir
    probe [Exec.run] makes before every daemon request. *)
let replay (tr : trace) ~dir ~certify ~ensure_dir src : Engine.run =
  let t_start = Unix.gettimeofday () in
  if ensure_dir then timed tr Cache_io (fun () -> ignore (Cache.ensure_dir dir));
  let prog =
    timed tr Syntax (fun () ->
        let p = Flux_syntax.Parser.parse_program src in
        Flux_syntax.Typeck.check_program p;
        p)
  in
  let genv = timed tr Genv_build (fun () -> Genv.build prog) in
  let config, quals_fp, senv_fp =
    timed tr Cache_key (fun () ->
        ( Engine.flux_config_string (),
          Cache.qualifiers_fingerprint Qualifier.default,
          Cache.struct_env_fingerprint genv.Genv.senv ))
  in
  let slots =
    List.filter_map
      (fun (fd : Ast.fn_def) ->
        match Genv.find_body genv fd.Ast.fn_name with
        | Some body when not fd.Ast.fn_trusted -> (
            let key =
              timed tr Cache_key (fun () ->
                  Cache.flux_key ~config ~senv_fp ~quals_fp
                    ~lookup:(Genv.find_sig genv) fd body)
            in
            match timed tr Cache_io (fun () -> Cache.load ~dir key) with
            | Some e
              when (not certify)
                   || timed tr Check_finish (fun () ->
                          Engine.cert_replay_ok ~dir key) ->
                Some (`Hit (fd, e))
            | _ -> Some (`Todo (fd, body, key)))
        | _ -> None)
      (Ast.program_fns prog)
  in
  let todo =
    Array.of_list
      (List.filter_map
         (function `Todo t -> Some t | `Hit _ -> None)
         slots)
  in
  let order =
    lpt_order (Array.map (fun (_, body, _) -> Engine.body_size body) todo)
  in
  (* phase A: constraint generation and solver preparation *)
  let preps = Array.make (Array.length todo) None in
  Array.iter
    (fun i ->
      let fd, body, _ = todo.(i) in
      let p = timed tr Check_prepare (fun () -> Checker.prepare genv fd body) in
      let sp =
        if Checker.prepared_early p then None
        else
          Some
            (timed tr Fixpoint_prepare (fun () ->
                 Solve.prepare
                   ~kvars:(Checker.prepared_kvars p)
                   (Checker.prepared_clauses p)))
      in
      preps.(i) <- Some (p, sp))
    order;
  let preps = Array.map Option.get preps in
  let solve_s = Array.make (Array.length todo) 0. in
  let max_level =
    Array.fold_left
      (fun acc (_, sp) ->
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
  (* phase B: per dependency level, probe the slice cache for every
     slice, solve the misses largest first, merge in slice order *)
  for level = 0 to max_level do
    let items = ref [] in
    Array.iteri
      (fun i (_, sp) ->
        match sp with
        | None -> ()
        | Some p ->
            for s = 0 to Solve.slice_count p - 1 do
              if Solve.slice_level p s = level then items := (i, p, s) :: !items
            done)
      preps;
    let items = Array.of_list (List.rev !items) in
    let probes =
      Array.map
        (fun (_, p, s) ->
          if Solve.slice_size p s = 0 then `Run None
          else
            let key =
              timed tr Cache_key (fun () ->
                  Cache.slice_key ~config ~quals_fp (Solve.slice_fingerprint p s))
            in
            match timed tr Cache_io (fun () -> Cache.slice_load ~dir key) with
            | Some e ->
                `Hit
                  {
                    Solve.sr_slice = s;
                    sr_sols = e.Cache.se_sols;
                    sr_failures = [];
                  }
            | None -> `Run (Some key))
        items
    in
    let runs =
      List.filter
        (fun j -> match probes.(j) with `Run _ -> true | `Hit _ -> false)
        (List.init (Array.length items) Fun.id)
      |> Array.of_list
    in
    let solved = Array.make (Array.length items) None in
    Array.iter
      (fun k ->
        let j = runs.(k) in
        let i, p, s = items.(j) in
        let t0 = Unix.gettimeofday () in
        let r = timed tr Fixpoint_self (fun () -> Solve.run_slice p s) in
        solve_s.(i) <- solve_s.(i) +. (Unix.gettimeofday () -. t0);
        solved.(j) <- Some r)
      (lpt_order
         (Array.map
            (fun j ->
              let _, p, s = items.(j) in
              Solve.slice_size p s)
            runs));
    Array.iteri
      (fun j (_, p, _) ->
        match (probes.(j), solved.(j)) with
        | `Hit r, _ -> timed tr Fixpoint_self (fun () -> Solve.apply_slice p r)
        | `Run key, Some r -> (
            timed tr Fixpoint_self (fun () -> Solve.apply_slice p r);
            match key with
            | Some k when r.Solve.sr_failures = [] ->
                timed tr Cache_io (fun () ->
                    Cache.slice_store ~dir k { Cache.se_sols = r.Solve.sr_sols })
            | _ -> ())
        | `Run _, None -> assert false)
      items
  done;
  (* phase C: verdicts, then stores (and certificates) for clean ones *)
  let reports =
    Array.mapi
      (fun i (p, sp) ->
        match sp with
        | None -> timed tr Check_finish (fun () -> Checker.finish ~certify p None)
        | Some sprep ->
            let res = timed tr Fixpoint_self (fun () -> Solve.finish sprep) in
            timed tr Check_finish (fun () ->
                Checker.finish ~solve_s:solve_s.(i) ~certify p (Some res)))
      preps
  in
  Array.iteri
    (fun i (_, _, key) ->
      let r = reports.(i) in
      if Checker.fn_ok r then begin
        timed tr Cache_io (fun () ->
            Cache.store ~dir key
              {
                Cache.e_kvars = r.Checker.fr_kvars;
                e_clauses = r.Checker.fr_clauses;
                e_time = r.Checker.fr_time;
              });
        match (certify, r.Checker.fr_solution) with
        | true, Some sol ->
            let p, _ = preps.(i) in
            timed tr Check_finish (fun () ->
                Engine.emit_flux_cert ~dir key
                  ~kvars:(Checker.prepared_kvars p)
                  sol
                  (Checker.prepared_clauses p))
        | _ -> ()
      end)
    todo;
  let next = ref 0 in
  let fns =
    List.map
      (function
        | `Hit ((fd : Ast.fn_def), (e : Cache.entry)) ->
            {
              Engine.fo_report =
                {
                  Checker.fr_name = fd.Ast.fn_name;
                  fr_errors = [];
                  fr_solution = None;
                  fr_kvars = e.Cache.e_kvars;
                  fr_clauses = e.Cache.e_clauses;
                  fr_time = 0.;
                };
              fo_cached = true;
            }
        | `Todo _ ->
            let r = reports.(!next) in
            incr next;
            { Engine.fo_report = r; fo_cached = false })
      slots
  in
  let hits = List.length (List.filter (fun o -> o.Engine.fo_cached) fns) in
  {
    Engine.run_fns = fns;
    run_hits = hits;
    run_misses = List.length fns - hits;
    run_time = Unix.gettimeofday () -. t_start;
  }

(** Everything a check decides, timings excluded: traced and untraced
    runs of one input must render identically. *)
let render (r : Engine.run) : string =
  String.concat "\n"
    (List.map
       (fun (o : Engine.fn_outcome) ->
         let fr = o.Engine.fo_report in
         Format.asprintf "%s ok=%b cached=%b kvars=%d clauses=%d errors=[%s]"
           fr.Checker.fr_name (Checker.fn_ok fr) o.Engine.fo_cached
           fr.Checker.fr_kvars fr.Checker.fr_clauses
           (String.concat ";"
              (List.map (Format.asprintf "%a" Checker.pp_error)
                 fr.Checker.fr_errors)))
       r.Engine.run_fns)

(** The exact counters the determinism check compares; each must repeat
    across rounds, and between traced and untraced checks. *)
let exact_counters =
  [
    "solver.queries";
    "fixpoint.weaken_checks";
    "absint.discharged";
    "check.clauses";
    "cert.cex";
  ]

let profile_count snap key =
  match List.assoc_opt key snap with Some (n, _, _) -> n | None -> 0

let profile_time snap key =
  match List.assoc_opt key snap with Some (_, t, _) -> t | None -> 0.
