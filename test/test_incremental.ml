(** Differential tests pinning the incremental (SCC-sliced) fixpoint
    schedule to the retained reference sweep: on every Table-1 workload
    (including seeded-bug Unsat paths), on every example program and on
    a seeded random Horn corpus, the two schedules must produce
    identical verdicts, errors, κ/clause counts and rendered solutions —
    wall-clock excluded. The default side is the engine pipeline the
    CLI and the daemon run; the reference side is
    {!Reference.check_source}. *)

module Checker = Flux_check.Checker
module Engine = Flux_engine.Engine
module Workloads = Flux_workloads.Workloads
module Oracle = Flux_fuzz.Oracle
module Reference = Flux_fuzz.Reference
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

(** Run the whole checker pipeline under one schedule, rendered;
    exceptions are outcomes too (both schedules must raise alike). *)
let run_rendered ~(incremental : bool) (src : string) : string =
  match
    if incremental then
      Engine.report_of_run
        (Engine.check_source { Engine.jobs = 1; cache_dir = None } src)
    else Reference.check_source src
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

(* ------------------------------------------------------------------ *)
(* Memo edge cases on hand-built Horn systems                           *)
(* ------------------------------------------------------------------ *)

module Term = Flux_smt.Term
module Sort = Flux_smt.Sort
module Profile = Flux_smt.Profile

let qual name body =
  Qualifier.make ~name ~vv:("v", Sort.Int) ~wild:[] (body (Term.var "v"))

let kvar name params values =
  Horn.{ kname = name; kparams = List.map (fun x -> (x, Sort.Int)) params; kvalues = values }

let clause ?(binders = []) hyps head =
  Horn.{ binders = List.map (fun x -> (x, Sort.Int)) binders; hyps; head; tag = 0 }

(** Solve [clauses] with the incremental schedule under fresh counters;
    its solution must render exactly as the reference sweep's, and its
    [solver.queries], [fixpoint.weaken_checks] and [absint.discharged]
    must be the expected ones. *)
let memo_case ~qualifiers ~kvars clauses ~queries ~weaken_checks ~discharged =
  let render = function
    | Solve.Sat sol -> Format.asprintf "sat %a" Solve.pp_solution sol
    | Solve.Unsat (fs, sol) ->
        Format.asprintf "unsat %d %a" (List.length fs) Solve.pp_solution sol
  in
  let reference = render (Reference.solve_clauses ~qualifiers ~kvars clauses) in
  Profile.reset ();
  let got = render (Solve.solve_clauses_incremental ~qualifiers ~kvars clauses) in
  let count k =
    match List.assoc_opt k (Profile.snapshot ()) with Some (n, _, _) -> n | None -> 0
  in
  Alcotest.(check string) "solution" reference got;
  Alcotest.(check int) "solver.queries" queries (count "solver.queries");
  Alcotest.(check int) "fixpoint.weaken_checks" weaken_checks
    (count "fixpoint.weaken_checks");
  Alcotest.(check int) "absint.discharged" discharged (count "absint.discharged")

(** κ(a, b) applied as κ(x, x): the goals are [x >= 1; x >= 5] for [a],
    then the same two again for [b], under one hypothesis [x + y >= s ∧
    y <= 1] (beyond the difference-bound environment, so every goal
    reaches the solver). With [s = 2] the first walk asks [x >= 1]
    (valid) and [x >= 5] (knocked out), and the next walk settles both
    twins from the memo row without a query. With [s = 7] every goal
    holds, so one walk asks all four: verdicts are recorded when a walk
    ends, and the twins are asked, and solved, again. *)
let duplicate_goals () =
  let open Term in
  let system s =
    [
      clause ~binders:[ "x"; "y" ]
        [ Horn.Conc (ge (add (var "x") (var "y")) (int s)); Horn.Conc (le (var "y") (int 1)) ]
        (Horn.Kapp ("k", [ var "x"; var "x" ]));
    ]
  in
  let case s =
    memo_case
      ~qualifiers:[ qual "ge1" (fun v -> ge v (int 1)); qual "ge5" (fun v -> ge v (int 5)) ]
      ~kvars:[ kvar "k" [ "a"; "b" ] 2 ]
      (system s)
  in
  case 2 ~queries:2 ~weaken_checks:1 ~discharged:0;
  case 7 ~queries:4 ~weaken_checks:1 ~discharged:0

(** κ0 := true, so the hypothesis of the first κ1 clause is [true] and
    its goals collapse: [true ⇒ q] to [q], [true ⇒ (0 >= 0)] to [true].
    The second κ1 clause, under [y >= 4], asks [y >= 4 ⇒ (0 >= 0)] —
    the same collapsed implication [true], answered from the memo: no
    query, no second discharge. *)
let collapsed_shared () =
  let open Term in
  memo_case
    ~qualifiers:[ qual "ge0" (fun v -> ge v (int 0)); qual "ge1" (fun v -> ge v (int 1)) ]
    ~kvars:[ kvar "k0" [ "z" ] 1; kvar "k1" [ "a"; "b" ] 2 ]
    [
      clause ~binders:[ "z" ] [] (Horn.Kapp ("k0", [ var "z" ]));
      clause ~binders:[ "x" ] [ Horn.Kapp ("k0", [ var "x" ]) ]
        (Horn.Kapp ("k1", [ var "x"; int 0 ]));
      clause ~binders:[ "y" ] [ Horn.Conc (ge (var "y") (int 4)) ]
        (Horn.Kapp ("k1", [ var "y"; int 0 ]));
    ]
    ~queries:5 ~weaken_checks:5 ~discharged:1

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
        Alcotest.test_case "memo: duplicate goals under one hypothesis" `Quick
          duplicate_goals;
        Alcotest.test_case "memo: collapsed implication shared across hypotheses"
          `Quick collapsed_shared;
      ] )
