(** Benchmark harness reproducing the paper's evaluation (§5).

    [bench/main.exe table1] regenerates Table 1: per-benchmark LOC /
    Spec / Annot line counts and verification times for Flux and for
    the Prusti-style baseline, plus the three headline claims (§5.1
    time ratio, §5.2 spec compactness, §5.3 annotation overhead).

    [bench/main.exe ablations] runs the parameter sweeps listed in
    DESIGN.md: qualifier-set size vs. solve time, the effect of
    cone-of-influence slicing, and the baseline's quantifier
    instantiation depth.

    [bench/main.exe lint] lints the 7 workloads with every pass
    enabled, cold then warm, asserting zero findings, a fully-hit warm
    cache, and zero warm solver queries; writes [BENCH_lint.json].

    [bench/main.exe certify] measures the proof-certificate pipeline:
    a cold certified run (solve + emit) against a warm run whose every
    verdict re-validates by replaying its stored certificate, asserting
    zero replay rejections, zero warm solver queries, and an aggregate
    replay time within 5% of the solve time; spliced into
    [BENCH_table1.json] under a ["certify"] key.

    [bench/main.exe absint] measures the abstract-interpretation
    pre-solver discharge off vs on per Table-1 workload, plus a
    crosscheck sweep; spliced into [BENCH_table1.json] under an
    ["absint"] key.

    [bench/main.exe all] runs [table1], then [ablations].

    [table1] additionally writes [BENCH_table1.json]: the same rows in
    machine-readable form, each with the full {!Flux_smt.Profile} dump
    for that verification run, so the perf trajectory is diffable
    across PRs. Every record is built as a {!Flux_json.Json.t}; the
    modes sharing [BENCH_table1.json] each replace only their own
    top-level keys ({!splice_table1}). Daemon latency and per-layer
    times are measured by [perfbench/], not here. *)

module Checker = Flux_check.Checker
module Wp = Flux_wp.Wp
module Engine = Flux_engine.Engine
module Workloads = Flux_workloads.Workloads
module Loc = Flux_workloads.Loc
module Solver = Flux_smt.Solver
module Profile = Flux_smt.Profile
module Json = Flux_json.Json

let fresh_stats () =
  Solver.reset_stats ();
  Flux_fixpoint.Solve.reset_stats ();
  Profile.reset ()

let time_flux ?config src =
  fresh_stats ();
  let t0 = Unix.gettimeofday () in
  let r = Checker.check_source ?config src in
  (Unix.gettimeofday () -. t0, Checker.report_ok r)

let time_prusti ?config src =
  fresh_stats ();
  let t0 = Unix.gettimeofday () in
  let r = Wp.verify_source ?config src in
  (Unix.gettimeofday () -. t0, Wp.report_ok r)

(* Like [time_flux]/[time_prusti], but also snapshot the profiler
   (reset by [fresh_stats], so the snapshot covers exactly this run). *)
let time_flux_prof src =
  let t, ok = time_flux src in
  (t, ok, Profile.to_json ())

let time_prusti_prof src =
  let t, ok = time_prusti src in
  (t, ok, Profile.to_json ())

(* ------------------------------------------------------------------ *)
(* Engine measurements (parallel + incremental cache)                  *)
(* ------------------------------------------------------------------ *)

(** Remove every cache entry so a run against [dir] starts cold. *)
let wipe_cache dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let profile_count key =
  match List.assoc_opt key (Profile.snapshot ()) with
  | Some (n, _, _) -> n
  | None -> 0

type engine_meas = {
  eg_jobs : int;
  eg_fns : int;  (** functions in the pooled suite *)
  eg_cold_t : float;  (** parallel wall-clock, empty cache *)
  eg_cold_ok : bool;
  eg_cold_hits : int;
  eg_warm_t : float;  (** parallel wall-clock, fully warm cache *)
  eg_warm_ok : bool;
  eg_warm_hits : int;
  eg_warm_misses : int;
  eg_warm_queries : int;  (** solver queries issued during the warm run *)
  eg_rows : (string * (int * int)) list;
      (** per-benchmark warm-run (cache hits, misses) *)
}

(** Verify all [srcs] as one pooled engine batch, cold then warm: the
    whole suite shares one schedule, so the parallel wall-clock is
    bounded by the single largest function rather than the largest
    per-benchmark sum. *)
let engine_suite ~jobs ~dir (srcs : (string * string) list) : engine_meas =
  let progs =
    List.map
      (fun (_, src) ->
        let p = Flux_syntax.Parser.parse_program src in
        Flux_syntax.Typeck.check_program p;
        p)
      srcs
  in
  let cfg = { Engine.jobs; cache_dir = Some dir } in
  (* The engine phases run late in the bench process; shed the heap the
     earlier suites grew (interned terms, major-heap garbage) so their
     wall-clock is not paying for the sequential runs' GC debt. *)
  let pristine () =
    fresh_stats ();
    Flux_smt.Term.reset_intern ();
    Gc.compact ()
  in
  wipe_cache dir;
  pristine ();
  let t0 = Unix.gettimeofday () in
  let cold = Engine.check_programs cfg progs in
  let cold_t = Unix.gettimeofday () -. t0 in
  pristine ();
  let t1 = Unix.gettimeofday () in
  let warm = Engine.check_programs cfg progs in
  let warm_t = Unix.gettimeofday () -. t1 in
  let warm_queries = profile_count "solver.queries" in
  let sum f runs = List.fold_left (fun a r -> a + f r) 0 runs in
  {
    eg_jobs = (if jobs <= 0 then Domain.recommended_domain_count () else jobs);
    eg_fns = sum (fun r -> List.length r.Engine.run_fns) warm;
    eg_cold_t = cold_t;
    eg_cold_ok = List.for_all Engine.run_ok cold;
    eg_cold_hits = sum (fun r -> r.Engine.run_hits) cold;
    eg_warm_t = warm_t;
    eg_warm_ok = List.for_all Engine.run_ok warm;
    eg_warm_hits = sum (fun r -> r.Engine.run_hits) warm;
    eg_warm_misses = sum (fun r -> r.Engine.run_misses) warm;
    eg_warm_queries = warm_queries;
    eg_rows =
      List.map2
        (fun (name, _) r -> (name, (r.Engine.run_hits, r.Engine.run_misses)))
        srcs warm;
  }

let json_engine (e : engine_meas) ~seq_time : Json.t =
  Json.Obj
    [
      ("jobs", Json.Int e.eg_jobs);
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("functions", Json.Int e.eg_fns);
      ("sequential_time_s", Json.Float seq_time);
      ("parallel_time_s", Json.Float e.eg_cold_t);
      ("parallel_over_sequential", Json.Float (e.eg_cold_t /. seq_time));
      ("warm_time_s", Json.Float e.eg_warm_t);
      ("warm_cache_hits", Json.Int e.eg_warm_hits);
      ("warm_cache_misses", Json.Int e.eg_warm_misses);
      ("warm_solver_queries", Json.Int e.eg_warm_queries);
    ]

(* ------------------------------------------------------------------ *)
(* Incremental fixpoint: SCC-scheduled weakening vs. the naive sweep,  *)
(* and slice-cache replay after a spec edit                            *)
(* ------------------------------------------------------------------ *)

(* Check [src] with the incremental schedule verification runs, or
   with the reference sweep ([Solve.solve_clauses_full]) it is measured
   against; true when every function verifies. *)
let with_schedule inc src =
  if inc then Checker.report_ok (Checker.check_source src)
  else
    let prog = Flux_syntax.Parser.parse_program src in
    Flux_syntax.Typeck.check_program prog;
    let genv = Flux_check.Genv.build prog in
    let check (fd : Flux_syntax.Ast.fn_def) =
      match Flux_check.Genv.find_body genv fd.fn_name with
      | Some body when not fd.fn_trusted -> (
          let pr = Checker.prepare genv fd body in
          (not (Checker.prepared_early pr))
          &&
          match
            Flux_fixpoint.Solve.solve_clauses_full
              ~kvars:(Checker.prepared_kvars pr) (Checker.prepared_clauses pr)
          with
          | Flux_fixpoint.Solve.Sat _ -> true
          | Flux_fixpoint.Solve.Unsat _ -> false)
      | _ -> true
    in
    List.for_all Fun.id (List.map check (Flux_syntax.Ast.program_fns prog))

(* Two sequential loops whose join κs land in distinct SCC slices; the
   return postcondition only reaches the later slice, so editing it
   must replay the first loop's slice from the cache. *)
let two_phase_src ret =
  Printf.sprintf
    {|
#[lr::sig(fn(usize<@n>) -> usize{v: %s})]
fn two_phase(n: usize) -> usize {
    let mut i = 0;
    let mut s = 0;
    while i < n {
        i += 1;
        s += 1;
    }
    let mut j = 0;
    while j < s {
        j += 1;
    }
    j
}
|}
    ret

type inc_meas = {
  im_naive_t : float;
  im_naive_wc : int;  (** weaken checks, reference sweep *)
  im_inc_t : float;
  im_inc_wc : int;  (** weaken checks, SCC worklist *)
  im_skipped : int;  (** fixpoint.reweaken_skipped *)
  im_sccs : int;  (** fixpoint.scc_count *)
  im_agree : bool;  (** both schedules return the same verdict *)
  im_edit_scratch_wc : int;  (** weaken checks re-solving the edit cold *)
  im_edit_warm_wc : int;  (** weaken checks with the slice cache warm *)
  im_edit_slice_hits : int;
  im_edit_ok : bool;
}

let incremental_bench () =
  let measure inc src =
    fresh_stats ();
    let t0 = Unix.gettimeofday () in
    let ok = with_schedule inc src in
    ( Unix.gettimeofday () -. t0,
      ok,
      profile_count "fixpoint.weaken_checks",
      profile_count "fixpoint.reweaken_skipped",
      profile_count "fixpoint.scc_count" )
  in
  let nt, nok, nwc, _, _ = measure false Workloads.rmat_flux in
  let it, iok, iwc, iskip, isccs = measure true Workloads.rmat_flux in
  (* spec edit: warm the slice cache on v1, then check v2 whose only
     change is the return postcondition; the unaffected SCC must replay *)
  let v1 = two_phase_src "0 <= v" and v2 = two_phase_src "v <= n" in
  fresh_stats ();
  let scratch_ok =
    Engine.run_ok
      (Engine.check_source { Engine.jobs = 1; cache_dir = None } v2)
  in
  let scratch_wc = profile_count "fixpoint.weaken_checks" in
  let dir = ".flux-cache-incbench" in
  wipe_cache dir;
  let cfg = { Engine.jobs = 1; cache_dir = Some dir } in
  let _ = Engine.check_source cfg v1 in
  fresh_stats ();
  let warm_ok = Engine.run_ok (Engine.check_source cfg v2) in
  let warm_wc = profile_count "fixpoint.weaken_checks" in
  let slice_hits = profile_count "cache.slice_hits" in
  wipe_cache dir;
  {
    im_naive_t = nt;
    im_naive_wc = nwc;
    im_inc_t = it;
    im_inc_wc = iwc;
    im_skipped = iskip;
    im_sccs = isccs;
    im_agree = nok = iok && nok;
    im_edit_scratch_wc = scratch_wc;
    im_edit_warm_wc = warm_wc;
    im_edit_slice_hits = slice_hits;
    im_edit_ok = scratch_ok && warm_ok;
  }

let inc_reduction (m : inc_meas) =
  float_of_int m.im_naive_wc /. float_of_int (max 1 m.im_inc_wc)

let inc_ok (m : inc_meas) =
  m.im_agree && m.im_edit_ok
  && m.im_inc_wc < m.im_naive_wc
  && m.im_edit_warm_wc < m.im_edit_scratch_wc
  && m.im_edit_slice_hits > 0

let json_incremental (m : inc_meas) : Json.t =
  Json.Obj
    [
      ( "rmat",
        Json.Obj
          [
            ("weaken_checks_naive", Json.Int m.im_naive_wc);
            ("weaken_checks_incremental", Json.Int m.im_inc_wc);
            ("reduction_x", Json.Float (inc_reduction m));
            ("reweaken_skipped", Json.Int m.im_skipped);
            ("sccs", Json.Int m.im_sccs);
            ("naive_time_s", Json.Float m.im_naive_t);
            ("incremental_time_s", Json.Float m.im_inc_t);
            ("verdicts_agree", Json.Bool m.im_agree);
          ] );
      ( "spec_edit",
        Json.Obj
          [
            ("weaken_checks_scratch", Json.Int m.im_edit_scratch_wc);
            ("weaken_checks_warm", Json.Int m.im_edit_warm_wc);
            ("slice_hits", Json.Int m.im_edit_slice_hits);
            ("ok", Json.Bool m.im_edit_ok);
          ] );
      ("ok", Json.Bool (inc_ok m));
    ]

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_flux : Loc.counts;
  r_flux_time : float option;
  r_flux_ok : bool;
  r_flux_profile : Json.t option;  (** profile of the flux run *)
  r_prusti : Loc.counts;
  r_prusti_time : float option;
  r_prusti_ok : bool;
  r_prusti_profile : Json.t option;
}

(* ------------------------------------------------------------------ *)
(* BENCH_table1.json                                                   *)
(* ------------------------------------------------------------------ *)

(** Write one bench record. *)
let write_json file (v : Json.t) =
  let oc = open_out file in
  output_string oc (Json.to_string ~pretty:true v);
  close_out oc

let table_file = "BENCH_table1.json"

(** Write [fields] as top-level keys of [BENCH_table1.json], keeping
    every key another mode wrote there: a key already present is
    replaced in place, a new one is appended. *)
let splice_table1 (fields : (string * Json.t) list) =
  let old =
    if not (Sys.file_exists table_file) then []
    else
      match Json.parse (Flux_engine.Diag.read_file table_file) with
      | Ok (Json.Obj kvs) -> kvs
      | Ok _ | Error _ ->
          Printf.printf "  (existing %s is not a JSON object; rewriting it)\n"
            table_file;
          []
  in
  let replaced =
    List.map
      (fun (k, v) -> (k, Option.value (List.assoc_opt k fields) ~default:v))
      old
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k old)) fields in
  write_json table_file (Json.Obj (replaced @ added))

let json_side ?annot ?cache (c : Loc.counts) time ok profile : Json.t =
  let opt f = function None -> [] | Some x -> f x in
  Json.Obj
    ([ ("loc", Json.Int c.Loc.loc); ("spec", Json.Int c.Loc.spec) ]
    @ opt (fun a -> [ ("annot", Json.Int a) ]) annot
    @ opt
        (fun (h, m) ->
          [ ("warm_cache_hits", Json.Int h); ("warm_cache_misses", Json.Int m) ])
        cache
    @ [
        ("time_s", Option.fold ~none:Json.Null ~some:(fun t -> Json.Float t) time);
        ("ok", Json.Bool ok);
        ("profile", Option.value profile ~default:Json.Null);
      ])

let json_row ~cache_rows (r : row) : Json.t =
  Json.Obj
    [
      ("name", Json.String r.r_name);
      ( "flux",
        json_side
          ?cache:(List.assoc_opt r.r_name cache_rows)
          r.r_flux r.r_flux_time r.r_flux_ok r.r_flux_profile );
      ( "prusti",
        json_side ~annot:r.r_prusti.Loc.annot r.r_prusti r.r_prusti_time
          r.r_prusti_ok r.r_prusti_profile );
    ]

let opt_time = function
  | None -> "    -"
  | Some t -> Printf.sprintf "%5.1f" t

let print_row r =
  Printf.printf "%-10s | %4d %4d %5s %5s %s | %4d %4d %5d %5s %s\n" r.r_name
    r.r_flux.Loc.loc r.r_flux.Loc.spec "-" (opt_time r.r_flux_time)
    (if r.r_flux_ok then " " else "FAIL")
    r.r_prusti.Loc.loc r.r_prusti.Loc.spec r.r_prusti.Loc.annot
    (opt_time r.r_prusti_time)
    (if r.r_prusti_ok then " " else "FAIL")

let table1 ~jobs () =
  Printf.printf
    "Table 1 - Flux vs. the Prusti-style baseline (this reproduction)\n\n";
  Printf.printf "%-10s | %-27s | %-27s\n" "" "Flux" "Prusti (baseline)";
  Printf.printf "%-10s | %4s %4s %5s %5s   | %4s %4s %5s %5s\n" "" "LOC" "Spec"
    "Annot" "T(s)" "LOC" "Spec" "Annot" "T(s)";
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "Library\n";
  let rvec_counts = Loc.count Workloads.rvec_spec in
  let rvec_row =
    {
      r_name = "RVec";
      r_flux = { rvec_counts with Loc.loc = 0 };
      r_flux_time = None (* built-in / trusted *);
      r_flux_ok = true;
      r_flux_profile = None;
      r_prusti = { rvec_counts with Loc.loc = 0 };
      r_prusti_time = None;
      r_prusti_ok = true;
      r_prusti_profile = None;
    }
  in
  print_row rvec_row;
  let rmat_time, rmat_ok, rmat_prof = time_flux_prof Workloads.rmat_flux in
  let rmat_row =
    {
      r_name = "RMat";
      r_flux = Loc.count Workloads.rmat_flux;
      r_flux_time = Some rmat_time;
      r_flux_ok = rmat_ok;
      r_flux_profile = Some rmat_prof;
      r_prusti = Loc.count Workloads.rmat_prusti;
      r_prusti_time = None (* trusted abstraction in Prusti, §5.2 *);
      r_prusti_ok = true;
      r_prusti_profile = None;
    }
  in
  print_row rmat_row;
  Printf.printf "Benchmarks\n";
  let rows =
    List.map
      (fun (b : Workloads.benchmark) ->
        let ft, fok, fprof = time_flux_prof b.Workloads.bm_flux in
        let pt, pok, pprof = time_prusti_prof b.Workloads.bm_prusti in
        {
          r_name = b.Workloads.bm_name;
          r_flux = Loc.count b.Workloads.bm_flux;
          r_flux_time = Some ft;
          r_flux_ok = fok;
          r_flux_profile = Some fprof;
          r_prusti = Loc.count b.Workloads.bm_prusti;
          r_prusti_time = Some pt;
          r_prusti_ok = pok;
          r_prusti_profile = Some pprof;
        })
      Workloads.all
  in
  List.iter print_row rows;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let sumt f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let fl = sum (fun r -> r.r_flux.Loc.loc) in
  let fs = sum (fun r -> r.r_flux.Loc.spec) in
  let ft = sumt (fun r -> Option.value ~default:0.0 r.r_flux_time) in
  let pl = sum (fun r -> r.r_prusti.Loc.loc) in
  let ps = sum (fun r -> r.r_prusti.Loc.spec) in
  let pa = sum (fun r -> r.r_prusti.Loc.annot) in
  let pt = sumt (fun r -> Option.value ~default:0.0 r.r_prusti_time) in
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "%-10s | %4d %4d %5s %5.1f   | %4d %4d %5d %5.1f\n" "Total" fl
    fs "-" ft pl ps pa pt;
  let time_ratio = pt /. ft in
  let spec_ratio = float_of_int ps /. float_of_int fs in
  let annot_pct = 100.0 *. float_of_int pa /. float_of_int pl in
  Printf.printf "\nHeadline claims (paper -> this reproduction):\n";
  Printf.printf
    "  §5.1 verification time ratio Prusti/Flux: %.1fx (paper: ~23x on \
     totals; 'an order of magnitude')\n"
    time_ratio;
  Printf.printf "  §5.2 specification lines Prusti/Flux: %.2fx (paper: ~2.1x)\n"
    spec_ratio;
  Printf.printf
    "  §5.3 loop invariants: Flux 0 lines; Prusti %d lines = %.1f%% of LOC \
     (paper: ~14%% of LOC, ~11%% here depending on counting)\n"
    pa annot_pct;
  (* Engine: the same Flux suite, pooled through the parallel scheduler
     with the persistent cache — cold (parallel speedup) then warm
     (incremental replay). *)
  let eng =
    engine_suite ~jobs ~dir:".flux-cache-bench"
      (List.map
         (fun (b : Workloads.benchmark) -> (b.Workloads.bm_name, b.Workloads.bm_flux))
         Workloads.all)
  in
  Printf.printf
    "\nEngine (scheduler + incremental cache, --jobs %d on %d core(s)):\n"
    eng.eg_jobs
    (Domain.recommended_domain_count ());
  Printf.printf "  flux suite sequential     : %6.1fs\n" ft;
  Printf.printf "  flux suite parallel (cold): %6.1fs  (%.2fx of sequential%s)\n"
    eng.eg_cold_t (eng.eg_cold_t /. ft)
    (if eng.eg_cold_ok then "" else "; FAIL");
  Printf.printf
    "  flux suite warm cache     : %6.2fs  (%d/%d hits, %d solver queries%s)\n"
    eng.eg_warm_t eng.eg_warm_hits eng.eg_fns eng.eg_warm_queries
    (if eng.eg_warm_ok then "" else "; FAIL");
  (* Incremental fixpoint: SCC-scheduled weakening vs. the reference
     sweep on the largest constraint system (RMat), plus slice-cache
     replay after a single-spec edit. *)
  let inc = incremental_bench () in
  Printf.printf "\nIncremental fixpoint (RMat, %d SCCs):\n" inc.im_sccs;
  Printf.printf
    "  weaken checks naive       : %6d  (%.1fs)\n"
    inc.im_naive_wc inc.im_naive_t;
  Printf.printf
    "  weaken checks incremental : %6d  (%.1fs; %.1fx fewer, %d re-weaken \
     skips%s)\n"
    inc.im_inc_wc inc.im_inc_t (inc_reduction inc) inc.im_skipped
    (if inc.im_agree then "" else "; VERDICTS DIVERGE");
  Printf.printf
    "  spec edit (slice cache)   : %6d  (vs %d from scratch; %d slice \
     hit(s)%s)\n"
    inc.im_edit_warm_wc inc.im_edit_scratch_wc inc.im_edit_slice_hits
    (if inc.im_edit_ok then "" else "; FAIL");
  splice_table1
    [
      ( "benchmarks",
        Json.List
          (List.map (json_row ~cache_rows:eng.eg_rows) (rvec_row :: rmat_row :: rows)) );
      ( "totals",
        Json.Obj
          [
            ( "flux",
              Json.Obj
                [ ("loc", Json.Int fl); ("spec", Json.Int fs); ("time_s", Json.Float ft) ]
            );
            ( "prusti",
              Json.Obj
                [
                  ("loc", Json.Int pl);
                  ("spec", Json.Int ps);
                  ("annot", Json.Int pa);
                  ("time_s", Json.Float pt);
                ] );
          ] );
      ("engine", json_engine eng ~seq_time:ft);
      ("incremental", json_incremental inc);
      ( "claims",
        Json.Obj
          [
            ("time_ratio_prusti_over_flux", Json.Float time_ratio);
            ("spec_ratio_prusti_over_flux", Json.Float spec_ratio);
            ("annot_pct_of_loc", Json.Float annot_pct);
          ] );
    ];
  Printf.printf "\nWrote BENCH_table1.json\n";
  let all_ok =
    List.for_all (fun r -> r.r_flux_ok && r.r_prusti_ok) rows
    && rmat_ok && eng.eg_cold_ok && eng.eg_warm_ok && inc_ok inc
  in
  Printf.printf "All verifications succeeded: %b\n" all_ok;
  if not all_ok then exit 1

(* ------------------------------------------------------------------ *)
(* CI smoke: small suite, cold + warm, asserting full warm hits        *)
(* ------------------------------------------------------------------ *)

let smoke ~jobs () =
  let names = [ "dotprod"; "bsearch" ] in
  let srcs =
    List.map
      (fun n ->
        let b = Option.get (Workloads.find n) in
        (n, b.Workloads.bm_flux))
      names
  in
  let eng = engine_suite ~jobs ~dir:".flux-cache-smoke" srcs in
  Printf.printf
    "Engine smoke (%s; --jobs %d):\n  cold: %.2fs (%d hits)\n  warm: %.2fs \
     (%d/%d hits, %d solver queries)\n"
    (String.concat "+" names) eng.eg_jobs eng.eg_cold_t eng.eg_cold_hits
    eng.eg_warm_t eng.eg_warm_hits eng.eg_fns eng.eg_warm_queries;
  write_json "BENCH_smoke.json"
    (Json.Obj
       [
         ("suite", Json.String (String.concat "+" names));
         ("engine", json_engine eng ~seq_time:eng.eg_cold_t);
         ("cold_cache_hits", Json.Int eng.eg_cold_hits);
         ("ok", Json.Bool (eng.eg_cold_ok && eng.eg_warm_ok));
       ]);
  Printf.printf "Wrote BENCH_smoke.json\n";
  let pass =
    eng.eg_cold_ok && eng.eg_warm_ok
    && eng.eg_cold_hits = 0
    && eng.eg_warm_hits = eng.eg_fns
    && eng.eg_warm_misses = 0
    && eng.eg_warm_queries = 0
  in
  Printf.printf "Smoke assertions (cold all-miss, warm all-hit, zero warm \
                 solver queries): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Fuzz smoke: a fixed-seed differential campaign over all three       *)
(* oracles must find zero bugs and report measured throughput          *)
(* ------------------------------------------------------------------ *)

let fuzz_smoke ~jobs () =
  let module Fuzz = Flux_fuzz.Fuzz in
  let cfg =
    {
      Fuzz.seed = 42;
      budget = 2.0;
      oracles = Fuzz.all_oracles;
      jobs;
      corpus_dir = None;
    }
  in
  let s = Fuzz.run cfg in
  let bugs = List.length (Fuzz.summary_bugs s) in
  Printf.printf "Fuzz smoke (seed %d, budget %.0fs, --jobs %d):\n" cfg.Fuzz.seed
    cfg.Fuzz.budget jobs;
  List.iter
    (fun (o : Fuzz.oracle_summary) ->
      Printf.printf "  %-10s %5d cases, %d ok, %d skipped, %d bugs\n"
        o.Fuzz.o_name o.Fuzz.o_cases o.Fuzz.o_ok o.Fuzz.o_skipped
        (List.length o.Fuzz.o_bugs))
    s.Fuzz.s_oracles;
  let total = List.fold_left (fun a o -> a + o.Fuzz.o_cases) 0 s.Fuzz.s_oracles in
  Printf.printf "  total      %5d cases in %.1fs (%.0f cases/s)\n" total
    s.Fuzz.s_elapsed
    (float_of_int total /. Float.max 1e-6 s.Fuzz.s_elapsed);
  let pass = bugs = 0 && not s.Fuzz.s_truncated in
  write_json "BENCH_fuzz.json"
    (Json.Obj
       [
         ("seed", Json.Int cfg.Fuzz.seed);
         ("budget", Json.Float cfg.Fuzz.budget);
         ("jobs", Json.Int jobs);
         ("cases", Json.Int total);
         ("elapsed", Json.Float s.Fuzz.s_elapsed);
         ( "oracles",
           Json.List
             (List.map
                (fun (o : Fuzz.oracle_summary) ->
                  Json.Obj
                    [
                      ("oracle", Json.String o.Fuzz.o_name);
                      ("cases", Json.Int o.Fuzz.o_cases);
                      ("ok", Json.Int o.Fuzz.o_ok);
                      ("skipped", Json.Int o.Fuzz.o_skipped);
                      ("frontend", Json.Int o.Fuzz.o_frontend);
                      ("bugs", Json.Int (List.length o.Fuzz.o_bugs));
                    ])
                s.Fuzz.s_oracles) );
         ("bugs", Json.Int bugs);
         ("truncated", Json.Bool s.Fuzz.s_truncated);
         ("ok", Json.Bool pass);
       ]);
  Printf.printf "Wrote BENCH_fuzz.json\n";
  Printf.printf "Fuzz assertions (zero bugs, no truncation): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Lint smoke: the 7 workloads must lint clean, and a warm-cache lint  *)
(* must answer entirely from the verdict cache (zero solver queries)   *)
(* ------------------------------------------------------------------ *)

module Lint = Flux_analysis.Lint
module Passes = Flux_analysis.Passes

let lint_bench ~jobs () =
  let dir = ".flux-cache-lint" in
  let cfg =
    { Lint.jobs; cache_dir = Some dir; passes = Passes.all_passes }
  in
  let lint_all () =
    List.map
      (fun (b : Workloads.benchmark) ->
        (b.Workloads.bm_name, Lint.lint_source cfg b.Workloads.bm_flux))
      Workloads.all
  in
  wipe_cache dir;
  fresh_stats ();
  Flux_smt.Term.reset_intern ();
  let t0 = Unix.gettimeofday () in
  let cold = lint_all () in
  let cold_t = Unix.gettimeofday () -. t0 in
  fresh_stats ();
  Flux_smt.Term.reset_intern ();
  let t1 = Unix.gettimeofday () in
  let warm = lint_all () in
  let warm_t = Unix.gettimeofday () -. t1 in
  let warm_queries = profile_count "solver.queries" in
  let sum f rs = List.fold_left (fun a (_, r) -> a + f r) 0 rs in
  let fns = sum (fun r -> List.length r.Lint.lr_fns) warm in
  let cold_findings = sum (fun r -> List.length (Lint.run_diags r)) cold in
  let warm_findings = sum (fun r -> List.length (Lint.run_diags r)) warm in
  let warm_hits = sum (fun r -> r.Lint.lr_hits) warm in
  let warm_misses = sum (fun r -> r.Lint.lr_misses) warm in
  Printf.printf
    "Lint smoke (7 workloads, every pass, --jobs %d):\n\
    \  cold: %.2fs (%d function(s), %d finding(s))\n\
    \  warm: %.2fs (%d/%d cache hits, %d finding(s), %d solver queries)\n"
    jobs cold_t fns cold_findings warm_t warm_hits fns warm_findings
    warm_queries;
  List.iter
    (fun (name, r) ->
      List.iter
        (fun d -> Printf.printf "  UNEXPECTED %s: %s\n" name
            (Format.asprintf "%a" Lint.pp_diag d))
        (Lint.run_diags r))
    (cold @ warm);
  let pass =
    cold_findings = 0 && warm_findings = 0 && warm_misses = 0
    && warm_hits = fns && warm_queries = 0
  in
  write_json "BENCH_lint.json"
    (Json.Obj
       [
         ("jobs", Json.Int jobs);
         ("functions", Json.Int fns);
         ("cold_time_s", Json.Float cold_t);
         ("cold_findings", Json.Int cold_findings);
         ("warm_time_s", Json.Float warm_t);
         ("warm_cache_hits", Json.Int warm_hits);
         ("warm_cache_misses", Json.Int warm_misses);
         ("warm_findings", Json.Int warm_findings);
         ("warm_solver_queries", Json.Int warm_queries);
         ("ok", Json.Bool pass);
       ]);
  Printf.printf "Wrote BENCH_lint.json\n";
  Printf.printf
    "Lint assertions (workloads clean, warm all-hit, zero warm solver \
     queries): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Certify: emit certificates on a cold run, replay them on the warm   *)
(* run, and assert the replay overhead stays within the 5% budget      *)
(* ------------------------------------------------------------------ *)

let profile_time key =
  match List.assoc_opt key (Profile.snapshot ()) with
  | Some (_, t, _) -> t
  | None -> 0.0

let certify_bench ~jobs () =
  let dir = ".flux-cache-certbench" in
  let progs =
    List.map
      (fun (b : Workloads.benchmark) ->
        let p = Flux_syntax.Parser.parse_program b.Workloads.bm_flux in
        Flux_syntax.Typeck.check_program p;
        p)
      Workloads.all
  in
  let cfg = { Engine.jobs; cache_dir = Some dir } in
  let pristine () =
    fresh_stats ();
    Flux_smt.Term.reset_intern ();
    Gc.compact ()
  in
  wipe_cache dir;
  pristine ();
  (* cold: solve every obligation and emit its certificate *)
  let t0 = Unix.gettimeofday () in
  let cold = Engine.check_programs ~certify:true cfg progs in
  let cold_t = Unix.gettimeofday () -. t0 in
  let emitted = profile_count "cert.emitted" in
  let incomplete = profile_count "cert.incomplete" in
  let emit_s = profile_time "cert.emit_s" in
  (* the solver work proper: cold wall-clock minus certificate
     construction (emission is the only certify-specific cold cost) *)
  let solve_s = cold_t -. emit_s in
  pristine ();
  (* warm: every cached verdict must re-validate by replay, with no
     SMT at all *)
  let t1 = Unix.gettimeofday () in
  let warm = Engine.check_programs ~certify:true cfg progs in
  let warm_t = Unix.gettimeofday () -. t1 in
  let replayed = profile_count "cert.replayed" in
  let failed = profile_count "cert.failed" in
  let replay_s = profile_time "cert.replay_s" in
  let warm_queries = profile_count "solver.queries" in
  wipe_cache dir;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let fns =
    List.fold_left (fun a r -> a + List.length r.Engine.run_fns) 0 warm
  in
  let cold_ok = List.for_all Engine.run_ok cold in
  let warm_ok = List.for_all Engine.run_ok warm in
  let ratio = replay_s /. Float.max 1e-9 solve_s in
  Printf.printf
    "Certify (7 workloads, --jobs %d):\n\
    \  cold: %.2fs  (%.2fs solving + %.2fs certificate emission; %d \
     certificate(s), %d function(s) uncertified)\n\
    \  warm: %.2fs  (%.3fs replaying %d certificate(s), %d rejected, %d \
     solver queries)\n\
    \  replay / solve: %.1f%%  (budget 5%%)\n"
    jobs cold_t solve_s emit_s emitted incomplete warm_t replay_s replayed
    failed warm_queries (100.0 *. ratio);
  let pass =
    cold_ok && warm_ok && emitted > 0 && incomplete = 0 && failed = 0
    && replayed = emitted && warm_queries = 0
    && ratio <= 0.05
  in
  let certify_json =
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("functions", Json.Int fns);
        ("cold_time_s", Json.Float cold_t);
        ("solve_s", Json.Float solve_s);
        ("emit_s", Json.Float emit_s);
        ("warm_time_s", Json.Float warm_t);
        ("replay_s", Json.Float replay_s);
        ("emitted", Json.Int emitted);
        ("replayed", Json.Int replayed);
        ("failed", Json.Int failed);
        ("incomplete", Json.Int incomplete);
        ("warm_solver_queries", Json.Int warm_queries);
        ("replay_over_solve", Json.Float ratio);
        ("ok", Json.Bool pass);
      ]
  in
  splice_table1 [ ("certify", certify_json) ];
  Printf.printf "Wrote %s (certify section)\n" table_file;
  Printf.printf
    "Certify assertions (all certified, warm all-replay, zero warm solver \
     queries, replay <= 5%% of solve): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation discharge                                   *)
(* ------------------------------------------------------------------ *)

(** Everything verdict-identity promises for one run, time excluded —
    same rendering the full-vs-incremental differential tests pin. *)
let absint_render (r : Checker.report) : string =
  String.concat "\n"
    (List.map
       (fun (fr : Checker.fn_report) ->
         Format.asprintf "%s kvars=%d clauses=%d errors=[%s] sol=%s"
           fr.Checker.fr_name fr.Checker.fr_kvars fr.Checker.fr_clauses
           (String.concat ";"
              (List.map
                 (fun e -> Format.asprintf "%a" Checker.pp_error e)
                 fr.Checker.fr_errors))
           (match fr.Checker.fr_solution with
           | None -> "-"
           | Some sol -> Format.asprintf "%a" Flux_fixpoint.Solve.pp_solution sol))
       r.Checker.rp_fns)

type absint_row = {
  ab_name : string;
  ab_off_q : int;  (** solver queries, discharge disabled *)
  ab_on_q : int;  (** solver queries, discharge enabled *)
  ab_disch : int;
  ab_fall : int;
  ab_same : bool;  (** rendered verdicts byte-identical off vs on *)
  ab_on_t : float;
}

(** Off-vs-on ablation of the pre-solver abstract discharge, per
    Table-1 workload, plus a crosscheck sweep: every discharged clause
    re-solved, solver verdict winning, zero disagreements allowed. *)
let absint_bench ~jobs:_ () =
  let run ~absint ~crosscheck src =
    let config =
      { Flux_smt.Config.default with absint; absint_crosscheck = crosscheck }
    in
    fresh_stats ();
    let t0 = Unix.gettimeofday () in
    let r = Checker.check_source ~config src in
    let t = Unix.gettimeofday () -. t0 in
    ( t,
      absint_render r,
      profile_count "solver.queries",
      profile_count "absint.discharged",
      profile_count "absint.fallthrough",
      profile_count "absint.crosscheck_fail" )
  in
  let cases =
    List.map
      (fun (b : Workloads.benchmark) -> (b.Workloads.bm_name, b.Workloads.bm_flux))
      Workloads.all
    @ [ ("rmat", Workloads.rmat_flux) ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let _, off_r, off_q, _, _, _ = run ~absint:false ~crosscheck:false src in
        let on_t, on_r, on_q, disch, fall, _ =
          run ~absint:true ~crosscheck:false src
        in
        {
          ab_name = name;
          ab_off_q = off_q;
          ab_on_q = on_q;
          ab_disch = disch;
          ab_fall = fall;
          ab_same = String.equal off_r on_r;
          ab_on_t = on_t;
        })
      cases
  in
  (* crosscheck sweep: re-solve every clause the environment answered
     and count disagreements (the solver's verdict wins regardless) *)
  let xfail =
    List.fold_left
      (fun acc (_, src) ->
        let _, _, _, _, _, x = run ~absint:true ~crosscheck:true src in
        acc + x)
      0 cases
  in
  let pct off on =
    if off = 0 then 0.0 else 100.0 *. float_of_int (off - on) /. float_of_int off
  in
  Printf.printf "Absint discharge (Table-1 workloads, off vs on):\n";
  Printf.printf "  %-10s %10s %10s %11s %12s %7s %6s\n" "workload" "SMT(off)"
    "SMT(on)" "discharged" "fallthrough" "saved" "same";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %10d %10d %11d %12d %6.1f%% %6s\n" r.ab_name
        r.ab_off_q r.ab_on_q r.ab_disch r.ab_fall
        (pct r.ab_off_q r.ab_on_q)
        (if r.ab_same then "yes" else "NO"))
    rows;
  let tot_off = List.fold_left (fun a r -> a + r.ab_off_q) 0 rows in
  let tot_on = List.fold_left (fun a r -> a + r.ab_on_q) 0 rows in
  let tot_disch = List.fold_left (fun a r -> a + r.ab_disch) 0 rows in
  let big_wins =
    List.length (List.filter (fun r -> pct r.ab_off_q r.ab_on_q >= 15.0) rows)
  in
  let all_same = List.for_all (fun r -> r.ab_same) rows in
  Printf.printf
    "  total: %d -> %d solver queries (%.1f%% saved), %d discharged; %d \
     workload(s) saved >= 15%%; crosscheck disagreements: %d\n"
    tot_off tot_on (pct tot_off tot_on) tot_disch big_wins xfail;
  let pass = all_same && tot_disch > 0 && big_wins >= 2 && xfail = 0 in
  let absint_json =
    Json.Obj
      [
        ( "rows",
          Json.Obj
            (List.map
               (fun r ->
                 ( r.ab_name,
                   Json.Obj
                     [
                       ("queries_off", Json.Int r.ab_off_q);
                       ("queries_on", Json.Int r.ab_on_q);
                       ("absint.discharged", Json.Int r.ab_disch);
                       ("absint.fallthrough", Json.Int r.ab_fall);
                       ("saved_pct", Json.Float (pct r.ab_off_q r.ab_on_q));
                       ("verdicts_identical", Json.Bool r.ab_same);
                       ("time_on_s", Json.Float r.ab_on_t);
                     ] ))
               rows) );
        ("queries_off_total", Json.Int tot_off);
        ("queries_on_total", Json.Int tot_on);
        ("absint.discharged", Json.Int tot_disch);
        ("workloads_saved_15pct", Json.Int big_wins);
        ("crosscheck_disagreements", Json.Int xfail);
        ("ok", Json.Bool pass);
      ]
  in
  splice_table1 [ ("absint", absint_json) ];
  Printf.printf "Wrote %s (absint section)\n" table_file;
  Printf.printf
    "Absint assertions (identical verdicts, discharged > 0, >= 2 workloads \
     saved >= 15%%, zero crosscheck disagreements): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(** A synthetic loop-inference constraint family: infer an invariant κ
    over a scope of [scope_n] ghost variables from a counting loop. *)
let synth_solve ~quals ~scope_n =
  let open Flux_smt in
  let open Flux_fixpoint in
  let scope =
    List.init scope_n (fun i -> (Printf.sprintf "x%d" i, Sort.Int))
  in
  let scope_args = List.map (fun (x, s) -> Term.Var (x, s)) scope in
  let k =
    Horn.{ kname = "k"; kparams = ("v", Sort.Int) :: scope; kvalues = 1 }
  in
  let c =
    Horn.conj
      [
        Horn.CBind
          ("x0", Sort.Int, [], Horn.CHead (Horn.Kapp ("k", Term.int 0 :: scope_args), 1));
        Horn.CBind
          ( "j",
            Sort.Int,
            [ Horn.Kapp ("k", Term.var "j" :: scope_args) ],
            Horn.CGuard
              ( Term.lt (Term.var "j") (Term.var "x0"),
                Horn.CHead
                  ( Horn.Kapp ("k", Term.add (Term.var "j") (Term.int 1) :: scope_args),
                    2 ) ) );
        Horn.CBind
          ( "v",
            Sort.Int,
            [ Horn.Kapp ("k", Term.var "v" :: scope_args) ],
            Horn.CHead (Horn.Conc (Term.ge (Term.var "v") (Term.int 0)), 3) );
      ]
  in
  fresh_stats ();
  let t0 = Unix.gettimeofday () in
  let ok =
    match Solve.solve ~qualifiers:quals ~kvars:[ k ] c with
    | Solve.Sat _ -> true
    | Solve.Unsat _ -> false
  in
  (Unix.gettimeofday () -. t0, ok, (Solve.stats ()).weaken_checks)

let ablations () =
  let full = Flux_fixpoint.Qualifier.default in
  Printf.printf
    "Ablation A - qualifier-set size vs. inference cost (synthetic loop):\n";
  Printf.printf "  |quals| scope  time(s)  verified  weaken-checks\n";
  List.iter
    (fun (nq, ns) ->
      let quals = List.filteri (fun i _ -> i < nq) full in
      let t, ok, wc = synth_solve ~quals ~scope_n:ns in
      Printf.printf "  %6d %5d  %7.3f  %8b  %13d\n" (List.length quals) ns t ok
        wc)
    [ (4, 4); (8, 4); (List.length full, 4); (4, 12); (8, 12); (List.length full, 12) ];

  Printf.printf "\nAblation B - cone-of-influence slicing (flux end-to-end):\n";
  Printf.printf "  benchmark   sliced(s)  unsliced(s)\n";
  List.iter
    (fun name ->
      let b = Option.get (Workloads.find name) in
      let t1, _ = time_flux b.Workloads.bm_flux in
      let t2, _ =
        time_flux
          ~config:{ Flux_smt.Config.default with slice = false }
          b.Workloads.bm_flux
      in
      Printf.printf "  %-10s %9.2f  %11.2f\n" name t1 t2)
    [ "bsearch"; "kmp"; "simplex" ];

  Printf.printf
    "\nAblation C - baseline quantifier-instantiation rounds (kmp):\n";
  Printf.printf "  rounds  time(s)  verified\n";
  let b = Option.get (Workloads.find "kmp") in
  List.iter
    (fun rounds ->
      let t, ok =
        time_prusti
          ~config:{ Flux_smt.Config.default with inst_rounds = rounds }
          b.Workloads.bm_prusti
      in
      Printf.printf "  %6d  %7.2f  %8b\n" rounds t ok)
    [ 0; 1; 2 ]

let () =
  let args = Array.to_list Sys.argv in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> ( try int_of_string n with Failure _ -> 4)
      | _ :: rest -> find rest
      | [] -> 4
    in
    find args
  in
  let mode =
    if Array.length Sys.argv > 1 && Sys.argv.(1) <> "--jobs" then Sys.argv.(1)
    else "all"
  in
  match mode with
  | "table1" -> table1 ~jobs ()
  | "smoke" -> smoke ~jobs ()
  | "fuzz" -> fuzz_smoke ~jobs ()
  | "lint" -> lint_bench ~jobs ()
  | "certify" -> certify_bench ~jobs ()
  | "absint" -> absint_bench ~jobs ()
  | "ablations" -> ablations ()
  | "all" ->
      table1 ~jobs ();
      Printf.printf "\n";
      ablations ()
  | m ->
      Printf.eprintf
        "unknown mode %s (expected table1 | smoke | fuzz | lint | certify | \
         absint | ablations | all)\n"
        m;
      exit 2
