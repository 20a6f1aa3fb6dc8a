(** Differential tests pinning the incremental (SCC-sliced) fixpoint
    schedule to the retained reference sweep: on every Table-1 workload
    (including seeded-bug Unsat paths), on every example program and on
    a seeded random Horn corpus, the two schedules must produce
    identical verdicts, errors, κ/clause counts and rendered solutions —
    wall-clock excluded. The default side is the engine pipeline the
    CLI and the daemon run; the reference side is {!Checker.prepare} +
    {!Solve.solve_clauses_full} + {!Checker.finish}. *)

module Checker = Flux_check.Checker
module Genv = Flux_check.Genv
module Engine = Flux_engine.Engine
module Workloads = Flux_workloads.Workloads
module Oracle = Flux_fuzz.Oracle
module Rng = Flux_fuzz.Rng
module Hgen = Flux_fuzz.Hgen
open Flux_fixpoint

(** Everything byte-identity promises for one function, time excluded. *)
let render_fn (fr : Checker.fn_report) : string =
  Format.asprintf "%s kvars=%d clauses=%d errors=[%s] sol=%s"
    fr.Checker.fr_name fr.Checker.fr_kvars fr.Checker.fr_clauses
    (String.concat ";"
       (List.map
          (fun e -> Format.asprintf "%a" Checker.pp_error e)
          fr.Checker.fr_errors))
    (match fr.Checker.fr_solution with
    | None -> "-"
    | Some sol -> Format.asprintf "%a" Solve.pp_solution sol)

(** The whole checker pipeline over the reference sweep:
    {!Checker.prepare}, {!Solve.solve_clauses_full} and
    {!Checker.finish} per function. *)
let reference_check_source (src : string) : Checker.report =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  let genv = Genv.build prog in
  let check (fd : Flux_syntax.Ast.fn_def) =
    match Genv.find_body genv fd.fn_name with
    | Some body when not fd.fn_trusted ->
        let pr = Checker.prepare genv fd body in
        Some
          (Checker.finish pr
             (if Checker.prepared_early pr then None
              else
                Some
                  (Solve.solve_clauses_full ~kvars:(Checker.prepared_kvars pr)
                     (Checker.prepared_clauses pr))))
    | _ -> None
  in
  {
    Checker.rp_fns = List.filter_map check (Flux_syntax.Ast.program_fns prog);
    rp_time = 0.;
  }

(** Run the whole checker pipeline under one schedule, rendered;
    exceptions are outcomes too (both schedules must raise alike). *)
let run_rendered ~(incremental : bool) (src : string) : string =
  match
    if incremental then
      Engine.report_of_run
        (Engine.check_source { Engine.jobs = 1; cache_dir = None } src)
    else reference_check_source src
  with
  | r -> String.concat "\n" (List.map render_fn r.Checker.rp_fns)
  | exception e -> "raised " ^ Printexc.to_string e

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let differential name src =
  Alcotest.test_case (name ^ ": schedules agree") `Slow (fun () ->
      Alcotest.(check string)
        name
        (run_rendered ~incremental:false src)
        (run_rendered ~incremental:true src))

(** Every example program. oob.rs fails verification under both
    schedules, which is exactly what the comparison must preserve;
    init_zeros.rs has non-trivial loop joins, so its rendered κ
    solution must be non-empty for the comparison to mean anything. *)
let example_programs () =
  let dir = "../examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rs")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "init_zeros.rs is among the examples" true
    (List.mem "init_zeros.rs" files);
  List.iter
    (fun f ->
      let src = Flux_engine.Diag.read_file (Filename.concat dir f) in
      let reference = run_rendered ~incremental:false src in
      Alcotest.(check string) f reference (run_rendered ~incremental:true src);
      if f = "init_zeros.rs" then
        Alcotest.(check bool) "init_zeros.rs: κ solution rendered" true
          (contains ~sub:" := " reference))
    files

(** The Unsat path: seeded mutations must fail identically — same
    failing clauses in the same order, same surviving solution. *)
let mutated name ~bug:(from_s, to_s) =
  let b = Option.get (Workloads.find name) in
  let src =
    match Str_replace.first b.Workloads.bm_flux from_s to_s with
    | Some s -> s
    | None -> Alcotest.failf "mutation pattern %S not found" from_s
  in
  differential (name ^ " (mutated)") src

(** A seeded random Horn corpus: the full-vs-incremental oracle must
    find no divergence on any of it. *)
let hgen_corpus () =
  let root = Rng.make 2026 in
  for case = 0 to 59 do
    let { Hgen.kvars; clauses } = Hgen.gen (Rng.split root case) in
    match
      Oracle.incremental_mismatch ~incremental:Oracle.default_incremental
        kvars clauses
    with
    | None -> ()
    | Some d -> Alcotest.failf "case %d: %s" case d
  done

let tests =
  ( "incremental",
    List.map
      (fun b -> differential b.Workloads.bm_name b.Workloads.bm_flux)
      Workloads.all
    @ [
        differential "rmat" Workloads.rmat_flux;
        mutated "bsearch" ~bug:("while lo < hi", "while lo <= hi");
        mutated "dotprod" ~bug:("i < x.len()", "i <= x.len()");
        Alcotest.test_case "seeded horn corpus: no divergence" `Slow
          hgen_corpus;
        Alcotest.test_case "examples/programs/*.rs: schedules agree" `Slow
          example_programs;
      ] )
