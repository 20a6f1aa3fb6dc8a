(** Tests for the lint subsystem ([lib/analysis]) and the generic MIR
    dataflow framework: each seeded defect in [examples/lint/] fires
    its pass exactly once, the 7 Table-1 workloads produce zero
    findings under {e every} pass, a warm-cache lint hits everything
    without a single SMT query, lint results are jobs-invariant, and
    the CLI surfaces (exit codes, JSON, the [--dump-solution] cache
    note) behave as documented. *)

module Lint = Flux_analysis.Lint
module Passes = Flux_analysis.Passes
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Ir = Flux_mir.Ir
module Dataflow = Flux_mir.Dataflow
module Liveness = Flux_mir.Liveness
module Profile = Flux_smt.Profile
module Json = Flux_json.Json
module Ast = Flux_syntax.Ast
module Workloads = Flux_workloads.Workloads

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let seed name = read_file (Filename.concat "../examples/lint" name)

let tmp_counter = ref 0

let fresh_cache_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flux-lint-cache-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let lint ?(jobs = 1) ?(cache_dir = None) ?(passes = Passes.all_passes) src =
  Lint.lint_source { Lint.jobs; cache_dir; passes } src

let diag_strings (r : Lint.run) : string list =
  List.map
    (fun d -> Format.asprintf "%a" Lint.pp_diag d)
    (Lint.run_diags r)

let sl = Alcotest.(list string)

(* ------------------------------------------------------------------ *)
(* Seeded defects: one finding each, from the right pass               *)
(* ------------------------------------------------------------------ *)

let seeds =
  [
    ("vacuous.rs", "vacuity");
    ("unreachable.rs", "unreachable");
    ("trivial.rs", "trivial-refinement");
    ("dead_store.rs", "dead-store");
    ("div_zero.rs", "div-by-zero");
    ("index_oob.rs", "index-bounds");
    ("overflow.rs", "overflow");
  ]

let seed_tests =
  List.map
    (fun (file, pass) ->
      Alcotest.test_case
        (Printf.sprintf "%s fires %s exactly once" file pass)
        `Quick
        (fun () ->
          let r = lint (seed file) in
          let diags = Lint.run_diags r in
          Alcotest.(check int)
            (file ^ " yields exactly one finding under every pass")
            1 (List.length diags);
          Alcotest.(check string)
            (file ^ " finding comes from the seeded pass")
            pass
            (List.hd diags).Passes.d_pass))
    seeds

let overflow_allow_by_default =
  Alcotest.test_case "overflow is allow-by-default" `Quick (fun () ->
      let r = lint ~passes:Passes.default_passes (seed "overflow.rs") in
      Alcotest.(check int) "default pass set reports nothing" 0
        (List.length (Lint.run_diags r));
      Alcotest.(check bool) "overflow not in the default set" false
        (List.mem "overflow" Passes.default_passes))

(* ------------------------------------------------------------------ *)
(* Workloads: clean under every pass; warm lints are query-free        *)
(* ------------------------------------------------------------------ *)

let workloads_clean_and_warm =
  Alcotest.test_case
    "workloads lint clean; warm lint all-hit with zero queries" `Slow
    (fun () ->
      let dir = fresh_cache_dir () in
      List.iter
        (fun (b : Workloads.benchmark) ->
          let r = lint ~cache_dir:(Some dir) b.Workloads.bm_flux in
          Alcotest.(check sl)
            (b.Workloads.bm_name ^ " has zero findings")
            [] (diag_strings r))
        Workloads.all;
      (* Warm pass: drop domain-local verifier state, re-lint, and
         demand full hits without a single SMT query. *)
      Flux_smt.Term.reset_intern ();
      Flux_smt.Solver.reset_stats ();
      Flux_fixpoint.Solve.reset_stats ();
      Profile.reset ();
      List.iter
        (fun (b : Workloads.benchmark) ->
          let r = lint ~cache_dir:(Some dir) b.Workloads.bm_flux in
          Alcotest.(check int)
            (b.Workloads.bm_name ^ " warm lint misses nothing")
            0 r.Lint.lr_misses;
          Alcotest.(check sl)
            (b.Workloads.bm_name ^ " warm lint stays clean")
            [] (diag_strings r))
        Workloads.all;
      let queries =
        match List.assoc_opt "solver.queries" (Profile.snapshot ()) with
        | Some (n, _, _) -> n
        | None -> 0
      in
      Alcotest.(check int) "warm lint issues zero solver queries" 0 queries)

let lint_jobs_invariant =
  Alcotest.test_case "findings identical across job counts" `Quick (fun () ->
      let srcs = [ seed "dead_store.rs"; seed "unreachable.rs" ] in
      let base =
        List.map (fun s -> diag_strings (lint ~jobs:1 s)) srcs
      in
      List.iter
        (fun jobs ->
          let got = List.map (fun s -> diag_strings (lint ~jobs s)) srcs in
          Alcotest.(check (list sl))
            (Printf.sprintf "jobs=%d matches jobs=1" jobs)
            base got)
        [ 2; -2 ])

(* ------------------------------------------------------------------ *)
(* The dataflow framework                                              *)
(* ------------------------------------------------------------------ *)

let lower_fn src name : Genv.t * Ast.fn_def * Ir.body =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  let genv = Genv.build prog in
  let fd =
    List.find
      (fun (fd : Ast.fn_def) -> fd.Ast.fn_name = name)
      (Ast.program_fns prog)
  in
  match Genv.find_body genv name with
  | Some body -> (genv, fd, body)
  | None -> Alcotest.fail ("no body for " ^ name)

(* A forward reachability instance: block_in is true iff some path from
   the entry reaches the block. Must agree exactly with the checker's
   structurally-dead list. *)
module Reach = Dataflow.Make (struct
  type t = bool

  let direction = `Forward
  let init _ = true
  let bottom _ = false
  let join = ( || )
  let equal = Bool.equal
  let transfer_stmt _ f _ = f
  let transfer_term _ f _ = f
end)

let forward_reachability_matches_checker =
  Alcotest.test_case "forward instance agrees with the checker" `Quick
    (fun () ->
      let src =
        {|
#[lr::sig(fn(i32) -> i32)]
fn early(x: i32) -> i32 {
    if x < 0 {
        return 0;
    }
    return x;
}
|}
      in
      let genv, fd, body = lower_fn src "early" in
      let r = Reach.run body in
      let unreachable_blocks =
        List.filter
          (fun bb -> not r.Reach.block_in.(bb))
          (List.init (Array.length body.Ir.mb_blocks) Fun.id)
      in
      let _, li = Checker.check_body_lint genv fd body in
      Alcotest.(check (list int))
        "dataflow reachability = checker dead blocks"
        li.Checker.li_dead_blocks unreachable_blocks)

let stmt_liveness_replay =
  Alcotest.test_case "per-statement liveness finds the dead store" `Quick
    (fun () ->
      let _, _, body = lower_fn (seed "dead_store.rs") "wasted" in
      let x =
        let found = ref (-1) in
        Array.iteri
          (fun i (d : Ir.local_decl) -> if d.Ir.ld_name = "x" then found := i)
          body.Ir.mb_locals;
        !found
      in
      Alcotest.(check bool) "local x exists" true (x >= 0);
      let live = Liveness.compute body in
      let after_flags = ref [] in
      Array.iteri
        (fun bb _ ->
          List.iter
            (fun (s, _before, after) ->
              match s with
              | Ir.SAssign (dest, _, _)
                when dest.Ir.projs = [] && dest.Ir.base = x ->
                  after_flags := after.(x) :: !after_flags
              | _ -> ())
            (Liveness.stmt_liveness live ~block:bb))
        body.Ir.mb_blocks;
      (* `let mut x = 0;` is dead (overwritten unread); `x = n;` is
         live (read by the return). *)
      Alcotest.(check (list bool))
        "live-after per assignment to x" [ false; true ]
        (List.rev !after_flags))

(* ------------------------------------------------------------------ *)
(* CLI behaviour                                                       *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(** Run the [flux] binary, returning (exit code, stdout, stderr). *)
let run_flux args =
  let out = Filename.temp_file "flux-test" ".out" in
  let err = Filename.temp_file "flux-test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/flux.exe %s > %s 2> %s" args
         (Filename.quote out) (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let cli_dump_solution_note =
  Alcotest.test_case "--dump-solution notes the disabled cache" `Quick
    (fun () ->
      let code, _, err =
        run_flux "check --dump-solution ../examples/programs/init_zeros.rs"
      in
      Alcotest.(check int) "clean program verifies" 0 code;
      Alcotest.(check bool) "stderr carries the note" true
        (contains ~sub:"--dump-solution disables the verification cache" err);
      let code2, _, err2 =
        run_flux
          "check --dump-solution --no-cache \
           ../examples/programs/init_zeros.rs"
      in
      Alcotest.(check int) "still verifies without a cache" 0 code2;
      Alcotest.(check bool) "no note when the cache is off anyway" false
        (contains ~sub:"disables the verification cache" err2))

let cli_lint_exit_codes =
  Alcotest.test_case "lint exit codes and JSON report" `Quick (fun () ->
      let code, out, _ =
        run_flux "lint --no-cache ../examples/programs/init_zeros.rs"
      in
      Alcotest.(check int) "clean file exits 0" 0 code;
      Alcotest.(check bool) "footer reports zero findings" true
        (contains ~sub:"0 finding(s)" out);
      let code, out, _ =
        run_flux "lint --format json --no-cache ../examples/lint/dead_store.rs"
      in
      Alcotest.(check int) "findings exit 1" 1 code;
      Alcotest.(check bool) "JSON names the pass" true
        (contains ~sub:"\"pass\": \"dead-store\"" out);
      Alcotest.(check bool) "JSON marks the run dirty" true
        (contains ~sub:"\"clean\": false" out);
      let odd_file = "d\"q\\b\nl\001.rs" in
      let run =
        Lint.lint_source
          { Lint.default_config with cache_dir = None; jobs = 1 }
          (seed "dead_store.rs")
      in
      let report = Lint.json_of_run ~file:odd_file run in
      Alcotest.(check bool) "escaped file name round-trips" true
        (Json.parse (Json.to_string ~pretty:true report) = Ok report
        && Json.member "file" report = Some (Json.String odd_file));
      let code, _, err = run_flux "lint --pass nonsense ../examples/lint/dead_store.rs" in
      Alcotest.(check int) "unknown pass exits 2" 2 code;
      Alcotest.(check bool) "unknown pass named on stderr" true
        (contains ~sub:"unknown lint pass" err))

let tests =
  ( "analysis",
    seed_tests
    @ [
        overflow_allow_by_default;
        workloads_clean_and_warm;
        lint_jobs_invariant;
        forward_reachability_matches_checker;
        stmt_liveness_replay;
        cli_dump_solution_note;
        cli_lint_exit_codes;
      ] )
