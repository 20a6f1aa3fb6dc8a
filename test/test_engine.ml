(** Tests for the verification engine: parallel determinism (identical
    verdicts, errors, κ/clause counts and exact profile counters for
    any [--jobs] value) and persistent-cache behaviour (full warm hits,
    exact invalidation of a changed callee and its callers, replay
    across fresh solver/intern state). *)

module Checker = Flux_check.Checker
module Wp = Flux_wp.Wp
module Engine = Flux_engine.Engine
module Profile = Flux_smt.Profile
module Json = Flux_json.Json
module Config = Flux_smt.Config
module Lint = Flux_analysis.Lint
module Passes = Flux_analysis.Passes
module Workloads = Flux_workloads.Workloads

let tmp_counter = ref 0

(** A fresh empty cache directory per test. *)
let fresh_cache_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flux-test-cache-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  dir

(** The observable result of one function's check, time excluded (time
    is inherently nondeterministic; everything else must be exact). *)
let fingerprint (fr : Checker.fn_report) : string =
  Format.asprintf "%s|%b|%d|%d|%s" fr.Checker.fr_name (Checker.fn_ok fr)
    fr.Checker.fr_kvars fr.Checker.fr_clauses
    (String.concat ";"
       (List.map
          (fun e -> Format.asprintf "%a" Checker.pp_error e)
          fr.Checker.fr_errors))

let run_fingerprints (r : Engine.run) : string list =
  List.map (fun o -> fingerprint o.Engine.fo_report) r.Engine.run_fns

let cached_flags (r : Engine.run) : (string * bool) list =
  List.map
    (fun o -> (o.Engine.fo_report.Checker.fr_name, o.Engine.fo_cached))
    r.Engine.run_fns

(* ------------------------------------------------------------------ *)
(* Parallel determinism                                                *)
(* ------------------------------------------------------------------ *)

let sl = Alcotest.(list string)

(* Negative job counts force that many real domains past the
   core-count clamp (see [Pool.run]), so these tests exercise genuine
   multi-domain runs even on single-core CI machines. *)
let jobs_grid = [ 1; 2; -2; -8 ]

let pp_jobs jobs =
  if jobs < 0 then Printf.sprintf "%d forced domains" (-jobs)
  else Printf.sprintf "--jobs %d" jobs

(** Engine runs, sequential and multi-domain, must match the plain
    sequential checker byte for byte on every observable field. *)
let parallel_determinism name src =
  Alcotest.test_case (name ^ " identical across job counts") `Slow (fun () ->
      let seq = Checker.check_source src in
      let seq_fps = List.map fingerprint seq.Checker.rp_fns in
      List.iter
        (fun jobs ->
          let run = Engine.check_source { Engine.jobs; cache_dir = None } src in
          Alcotest.(check sl)
            (Printf.sprintf "%s at %s" name (pp_jobs jobs))
            seq_fps (run_fingerprints run))
        jobs_grid)

let workload_determinism name =
  let b = Option.get (Workloads.find name) in
  parallel_determinism name b.Workloads.bm_flux

(* A failing program: parallel error reports must also be identical. *)
let failing_src =
  {|
#[lr::sig(fn(&RVec<i32, @n>, usize) -> i32)]
fn get_unchecked(v: &RVec<i32>, i: usize) -> i32 {
    *v.get(i)
}

#[lr::sig(fn(&RVec<i32, @n>) -> i32 requires 0 < n)]
fn first(v: &RVec<i32>) -> i32 {
    *v.get(0)
}
|}

let wp_parallel_determinism =
  Alcotest.test_case "wp identical across job counts" `Slow (fun () ->
      let b = Option.get (Workloads.find "dotprod") in
      let src = b.Workloads.bm_prusti in
      let fp (fr : Wp.fn_report) =
        Format.asprintf "%s|%b|%d|%s" fr.Wp.fr_name (Wp.fn_ok fr) fr.Wp.fr_vcs
          (String.concat ";"
             (List.map (fun e -> Format.asprintf "%a" Wp.pp_error e) fr.Wp.fr_errors))
      in
      let seq = Wp.verify_source src in
      let seq_fps = List.map fp seq.Wp.rp_fns in
      List.iter
        (fun jobs ->
          let run = Engine.verify_source { Engine.jobs; cache_dir = None } src in
          Alcotest.(check sl)
            (Printf.sprintf "wp dotprod at %s" (pp_jobs jobs))
            seq_fps
            (List.map (fun o -> fp o.Engine.wo_report) run.Engine.wr_fns))
        jobs_grid)

(* ------------------------------------------------------------------ *)
(* Cache invalidation                                                  *)
(* ------------------------------------------------------------------ *)

(* [f] is called by [g]; [h] is independent. *)
let cache_src_v1 =
  {|
#[lr::sig(fn(usize<@n>) -> usize{v: n <= v})]
fn f(n: usize) -> usize {
    n + 1
}

#[lr::sig(fn(usize<@n>) -> usize{v: n <= v})]
fn g(n: usize) -> usize {
    f(n)
}

#[lr::sig(fn(usize<@n>) -> usize{v: v <= n})]
fn h(n: usize) -> usize {
    n - n
}
|}

(* Same program with [f]'s signature strengthened: [f] and its caller
   [g] must re-verify; [h] must still hit. *)
let cache_src_sig_edit =
  {|
#[lr::sig(fn(usize<@n>) -> usize{v: n < v})]
fn f(n: usize) -> usize {
    n + 1
}

#[lr::sig(fn(usize<@n>) -> usize{v: n <= v})]
fn g(n: usize) -> usize {
    f(n)
}

#[lr::sig(fn(usize<@n>) -> usize{v: v <= n})]
fn h(n: usize) -> usize {
    n - n
}
|}

(* Same program with only [f]'s body changed: callers depend on [f]'s
   signature alone, so exactly [f] re-verifies. *)
let cache_src_body_edit =
  {|
#[lr::sig(fn(usize<@n>) -> usize{v: n <= v})]
fn f(n: usize) -> usize {
    n + 2
}

#[lr::sig(fn(usize<@n>) -> usize{v: n <= v})]
fn g(n: usize) -> usize {
    f(n)
}

#[lr::sig(fn(usize<@n>) -> usize{v: v <= n})]
fn h(n: usize) -> usize {
    n - n
}
|}

(* v1 with a comment and blank lines prepended: every span moves, no
   content changes — fingerprints are span-insensitive, so all hits. *)
let cache_src_shifted = "// a comment\n\n\n" ^ cache_src_v1

let flags = Alcotest.(list (pair string bool))

let check_with dir src =
  Engine.check_source { Engine.jobs = 1; cache_dir = Some dir } src

let cache_warm_hits =
  Alcotest.test_case "warm rerun is 100% cache hits" `Quick (fun () ->
      let dir = fresh_cache_dir () in
      let cold = check_with dir cache_src_v1 in
      Alcotest.(check bool) "cold run verifies" true (Engine.run_ok cold);
      Alcotest.(check flags) "cold run misses everything"
        [ ("f", false); ("g", false); ("h", false) ]
        (cached_flags cold);
      let warm = check_with dir cache_src_v1 in
      Alcotest.(check bool) "warm run verifies" true (Engine.run_ok warm);
      Alcotest.(check flags) "warm run hits everything"
        [ ("f", true); ("g", true); ("h", true) ]
        (cached_flags warm);
      Alcotest.(check sl) "warm reports equal cold reports (sans solutions)"
        (run_fingerprints cold) (run_fingerprints warm))

let cache_sig_invalidation =
  Alcotest.test_case "sig edit re-verifies exactly callee + callers" `Quick
    (fun () ->
      let dir = fresh_cache_dir () in
      let _ = check_with dir cache_src_v1 in
      let edited = check_with dir cache_src_sig_edit in
      Alcotest.(check bool) "edited program verifies" true (Engine.run_ok edited);
      Alcotest.(check flags)
        "f (edited) and g (caller of f) re-verify; h hits"
        [ ("f", false); ("g", false); ("h", true) ]
        (cached_flags edited))

let cache_body_invalidation =
  Alcotest.test_case "body edit re-verifies exactly that function" `Quick
    (fun () ->
      let dir = fresh_cache_dir () in
      let _ = check_with dir cache_src_v1 in
      let edited = check_with dir cache_src_body_edit in
      Alcotest.(check bool) "edited program verifies" true (Engine.run_ok edited);
      Alcotest.(check flags)
        "only f re-verifies; g and h hit"
        [ ("f", false); ("g", true); ("h", true) ]
        (cached_flags edited))

let cache_span_insensitive =
  Alcotest.test_case "moving code invalidates nothing" `Quick (fun () ->
      let dir = fresh_cache_dir () in
      let _ = check_with dir cache_src_v1 in
      let shifted = check_with dir cache_src_shifted in
      Alcotest.(check flags) "shifted program hits everything"
        [ ("f", true); ("g", true); ("h", true) ]
        (cached_flags shifted))

let cache_fresh_state =
  Alcotest.test_case "replays across fresh solver/intern state" `Quick
    (fun () ->
      (* Approximates a cross-process rerun in-process: drop every piece
         of domain-local verifier state a new executable would lack (the
         CI smoke job exercises the real two-process case). *)
      let dir = fresh_cache_dir () in
      let cold = check_with dir cache_src_v1 in
      Alcotest.(check bool) "cold run verifies" true (Engine.run_ok cold);
      Flux_smt.Term.reset_intern ();
      Flux_smt.Solver.reset_stats ();
      Flux_fixpoint.Solve.reset_stats ();
      Profile.reset ();
      let warm = check_with dir cache_src_v1 in
      Alcotest.(check flags) "rerun hits everything"
        [ ("f", true); ("g", true); ("h", true) ]
        (cached_flags warm);
      let queries =
        match List.assoc_opt "solver.queries" (Profile.snapshot ()) with
        | Some (n, _, _) -> n
        | None -> 0
      in
      Alcotest.(check int) "warm run issues no solver queries" 0 queries)

(* Every single-field change of the verification configuration. *)
let config_variants =
  let d = Config.default in
  [
    ("absint", { d with absint = not d.absint });
    ("absint_crosscheck", { d with absint_crosscheck = not d.absint_crosscheck });
    ("slice", { d with slice = not d.slice });
    ("inst_rounds", { d with inst_rounds = d.inst_rounds + 1 });
  ]

(** [tool ~dir config] runs one tool on {!cache_src_v1} against the
    cache in [dir] and returns (cache hits, functions). After a cold
    default run, no single-field variant may replay an entry written
    under another configuration; a final default rerun still hits
    everything, so the entries were there to be (wrongly) hit. *)
let cache_config_salt name (tool : dir:string -> Config.t -> int * int) =
  Alcotest.test_case (name ^ ": any Config.t field change re-keys") `Quick
    (fun () ->
      let dir = fresh_cache_dir () in
      let hits, fns = tool ~dir Config.default in
      Alcotest.(check int) "cold run misses everything" 0 hits;
      List.iter
        (fun (field, config) ->
          let hits, _ = tool ~dir config in
          Alcotest.(check int) (field ^ " changed: nothing replayed") 0 hits)
        config_variants;
      let hits, _ = tool ~dir Config.default in
      Alcotest.(check int) "default rerun hits everything" fns hits)

let flux_salt ~dir config =
  let r =
    Engine.check_source ~config
      { Engine.jobs = 1; cache_dir = Some dir }
      cache_src_v1
  in
  (r.Engine.run_hits, List.length r.Engine.run_fns)

let wp_salt ~dir config =
  let r =
    Engine.verify_source ~config
      { Engine.jobs = 1; cache_dir = Some dir }
      cache_src_v1
  in
  (r.Engine.wr_hits, List.length r.Engine.wr_fns)

let lint_salt ~dir config =
  let r =
    Lint.lint_source ~config
      { Lint.jobs = 1; cache_dir = Some dir; passes = Passes.default_passes }
      cache_src_v1
  in
  (r.Lint.lr_hits, List.length r.Lint.lr_fns)

let cache_disabled =
  Alcotest.test_case "--no-cache never hits" `Quick (fun () ->
      let r1 =
        Engine.check_source { Engine.jobs = 1; cache_dir = None } cache_src_v1
      in
      let r2 =
        Engine.check_source { Engine.jobs = 1; cache_dir = None } cache_src_v1
      in
      Alcotest.(check int) "no hits without a cache dir" 0
        (r1.Engine.run_hits + r2.Engine.run_hits))

let cache_failing_not_stored =
  Alcotest.test_case "failing functions are never cached" `Quick (fun () ->
      let dir = fresh_cache_dir () in
      let r1 = check_with dir failing_src in
      Alcotest.(check bool) "program fails" false (Engine.run_ok r1);
      let r2 = check_with dir failing_src in
      (* [first] is provably safe and caches; [get_unchecked] fails and
         must be re-checked (its errors re-derived, not replayed). *)
      Alcotest.(check flags) "failing fn misses, passing fn hits"
        [ ("get_unchecked", false); ("first", true) ]
        (cached_flags r2);
      Alcotest.(check sl) "identical reports on rerun" (run_fingerprints r1)
        (run_fingerprints r2))

(* ------------------------------------------------------------------ *)
(* Slice cache: a spec edit replays the unaffected κ-SCCs              *)
(* ------------------------------------------------------------------ *)

(* Two sequential loops: the second loop's join κ depends on the
   first's, so they land in distinct SCC slices; the return
   postcondition only reaches the later slice's concrete clauses. *)
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

let counter key =
  match List.assoc_opt key (Profile.snapshot ()) with
  | Some (n, _, _) -> n
  | None -> 0

let cache_slice_reuse =
  Alcotest.test_case "spec edit replays unchanged κ-slices" `Quick (fun () ->
      let v1 = two_phase_src "0 <= v" in
      let v2 = two_phase_src "v <= n" in
      (* baseline: how much weakening an uncached check of v2 does *)
      Profile.reset ();
      let cold =
        Engine.check_source { Engine.jobs = 1; cache_dir = None } v2
      in
      Alcotest.(check bool) "v2 verifies" true (Engine.run_ok cold);
      let cold_weaken = counter "fixpoint.weaken_checks" in
      Alcotest.(check bool) "uncached run weakens" true (cold_weaken > 0);
      (* warm the slice cache with v1, then check the edited spec: the
         function-level entry misses (sig changed) but the first loop's
         SCC is untouched and must replay from the slice cache, so the
         edited run re-weakens strictly less than from scratch *)
      let dir = fresh_cache_dir () in
      let _ = check_with dir v1 in
      Profile.reset ();
      let warm = check_with dir v2 in
      Alcotest.(check bool) "edited program verifies" true (Engine.run_ok warm);
      Alcotest.(check flags) "the edited function itself re-checks"
        [ ("two_phase", false) ]
        (cached_flags warm);
      Alcotest.(check bool) "unchanged slices replay from the cache" true
        (counter "cache.slice_hits" >= 1);
      let warm_weaken = counter "fixpoint.weaken_checks" in
      if warm_weaken >= cold_weaken then
        Alcotest.failf
          "spec edit re-weakened everything: %d checks warm vs %d cold"
          warm_weaken cold_weaken)

(* ------------------------------------------------------------------ *)
(* Profile JSON typing (the [_s]-key satellite fix)                    *)
(* ------------------------------------------------------------------ *)

let profile_json_types =
  Alcotest.test_case "timers always serialize as floats" `Quick (fun () ->
      Profile.reset ();
      Profile.add_time "zero_timer_s" 0.0;
      Profile.incr "plain_counter";
      Profile.time "real_timer_s" (fun () -> ());
      let json = Json.parse (Json.to_string (Profile.to_json ())) in
      Profile.reset ();
      let totals k =
        match json with
        | Ok j -> Option.bind (Json.member "totals" j) (Json.member k)
        | Error e -> Alcotest.fail ("Profile.to_json does not parse: " ^ e)
      in
      Alcotest.(check bool)
        "a 0.0-second timer renders as a float, not its count" true
        (totals "zero_timer_s" = Some (Json.Float 0.0));
      Alcotest.(check bool)
        "counters still render as integers" true
        (totals "plain_counter" = Some (Json.Int 1));
      Alcotest.(check bool)
        "timed cells never fall back to counts" true
        (match totals "real_timer_s" with Some (Json.Float _) -> true | _ -> false))

let profile_capture_absorb =
  Alcotest.test_case "capture/absorb merges counters and timers" `Quick
    (fun () ->
      Profile.reset ();
      Profile.incr "c";
      Profile.add_time "t_s" 0.5;
      let cap = Profile.capture () in
      Profile.reset ();
      Profile.incr "c";
      Profile.absorb cap;
      let c, t =
        ( List.assoc_opt "c" (Profile.snapshot ()),
          List.assoc_opt "t_s" (Profile.snapshot ()) )
      in
      Profile.reset ();
      (match c with
      | Some (2, _, false) -> ()
      | _ -> Alcotest.fail "expected counter c = 2 (untimed)");
      match t with
      | Some (1, v, true) when abs_float (v -. 0.5) < 1e-9 -> ()
      | _ -> Alcotest.fail "expected timer t_s = 0.5s (timed)")

(* ------------------------------------------------------------------ *)
(* Concurrent configurations                                           *)
(* ------------------------------------------------------------------ *)

(** Two domains check bsearch side by side, one with the pre-solver
    discharge off and one with it on. Each check must run under its
    own configuration on every iteration — no setting leaks between
    concurrent checks — and both must report the same verdicts. *)
let concurrent_configs =
  Alcotest.test_case "concurrent checks keep their own absint setting" `Slow
    (fun () ->
      let src = (Option.get (Workloads.find "bsearch")).Workloads.bm_flux in
      let loop absint () =
        let config = { Config.default with absint } in
        List.init 3 (fun _ ->
            Profile.reset ();
            let r =
              Engine.check_source ~config
                { Engine.jobs = 1; cache_dir = None }
                src
            in
            (run_fingerprints r, counter "absint.discharged"))
      in
      let off = Domain.spawn (loop false) in
      let on = Domain.spawn (loop true) in
      let off = Domain.join off and on = Domain.join on in
      List.iteri
        (fun i ((off_fps, off_n), (on_fps, on_n)) ->
          Alcotest.(check int)
            (Printf.sprintf "iteration %d: absint off discharges nothing" i)
            0 off_n;
          Alcotest.(check bool)
            (Printf.sprintf "iteration %d: absint on discharges" i)
            true (on_n > 0);
          Alcotest.(check sl)
            (Printf.sprintf "iteration %d: same verdicts" i)
            off_fps on_fps)
        (List.combine off on))

(* ------------------------------------------------------------------ *)
(* Deterministic counters                                              *)
(* ------------------------------------------------------------------ *)

(** The exact counters of one check do not depend on the job count:
    every query is decided afresh, so a worker domain's earlier checks
    cannot answer a later one's queries. *)
let counter_keys =
  [
    "solver.queries";
    "solver.theory_checks";
    "lia.fm_rows";
    "lia.fm_row_copies";
    "fixpoint.weaken_checks";
    "absint.discharged";
  ]

let counter_determinism name =
  Alcotest.test_case (name ^ " counters identical across job counts") `Slow
    (fun () ->
      let src = (Option.get (Workloads.find name)).Workloads.bm_flux in
      let counts jobs =
        Flux_smt.Term.reset_intern ();
        Profile.reset ();
        ignore (Engine.check_source { Engine.jobs; cache_dir = None } src);
        List.map Profile.count counter_keys
      in
      let seq = counts 1 in
      Alcotest.(check (list int))
        (String.concat ", " counter_keys ^ " at " ^ pp_jobs (-2))
        seq (counts (-2)))

let tests =
  ( "engine",
    [
      profile_json_types;
      profile_capture_absorb;
      cache_warm_hits;
      cache_sig_invalidation;
      cache_body_invalidation;
      cache_span_insensitive;
      cache_fresh_state;
      cache_disabled;
      cache_failing_not_stored;
      cache_slice_reuse;
      cache_config_salt "flux" flux_salt;
      cache_config_salt "wp" wp_salt;
      cache_config_salt "lint" lint_salt;
      concurrent_configs;
      parallel_determinism "failing-program" failing_src;
      wp_parallel_determinism;
      workload_determinism "dotprod";
      workload_determinism "bsearch";
      workload_determinism "heapsort";
      workload_determinism "kmp";
      counter_determinism "heapsort";
    ] )
