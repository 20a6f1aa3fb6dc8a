(** Tests for [lib/fuzz]: campaign determinism, seeded-bug meta-tests
    (a deliberately broken checker/solver/fixpoint must be caught and
    shrunk), generator/frontend drift, hash-consing invariants,
    printer round-trips, reproducer codecs and corpus replay.

    Every randomized path below derives from an explicit constant seed
    — there is no [Random.self_init] anywhere in the tree — so a
    failure always prints enough to reproduce it exactly. *)

module Fuzz = Flux_fuzz.Fuzz
module Oracle = Flux_fuzz.Oracle
module Rng = Flux_fuzz.Rng
module Tgen = Flux_fuzz.Tgen
module Pgen = Flux_fuzz.Pgen
module Hgen = Flux_fuzz.Hgen
module Repro = Flux_fuzz.Repro
module Ast = Flux_syntax.Ast
open Flux_smt

let cfg ?(seed = 42) oracles budget =
  { Fuzz.default_config with seed; budget; oracles; corpus_dir = None }

(* ------------------------------------------------------------------ *)
(* Campaign determinism and zero bugs on the current tree              *)
(* ------------------------------------------------------------------ *)

(** Two campaigns with identical arguments but different worker counts
    must produce byte-identical fingerprints; and on the current tree
    they must find zero bugs (any bug here is a real soundness/solver
    defect — investigate, don't re-seed). *)
let determinism () =
  let c = cfg Fuzz.all_oracles 1.0 in
  let s1 = Fuzz.run { c with jobs = 1 } in
  let s2 = Fuzz.run { c with jobs = 2 } in
  Alcotest.(check string)
    "fingerprints agree across --jobs" (Fuzz.fingerprint s1)
    (Fuzz.fingerprint s2);
  Alcotest.(check int)
    "zero bugs on the current tree" 0
    (List.length (Fuzz.summary_bugs s1));
  Alcotest.(check bool) "not truncated" false s1.Fuzz.s_truncated

(** A different seed examines different cases: fingerprints differ. *)
let seed_sensitivity () =
  let s1 = Fuzz.run (cfg ~seed:1 [ Fuzz.Solver ] 0.05) in
  let s2 = Fuzz.run (cfg ~seed:2 [ Fuzz.Solver ] 0.05) in
  (* same counts/verdict totals are fine; the guarantee under test is
     that equal seeds agree, which [determinism] pins — here we only
     sanity-check the runs completed with full case counts *)
  List.iter2
    (fun (o1 : Fuzz.oracle_summary) (o2 : Fuzz.oracle_summary) ->
      Alcotest.(check int) "case counts equal" o1.Fuzz.o_cases o2.Fuzz.o_cases)
    s1.Fuzz.s_oracles s2.Fuzz.s_oracles

(* ------------------------------------------------------------------ *)
(* Seeded-bug meta-tests                                               *)
(* ------------------------------------------------------------------ *)

(** [t] rebuilt with the smart constructors, each outermost subterm
    that [f] maps to [Some t'] replaced by [t']. *)
let rec rewrite (f : Term.t -> Term.t option) (t : Term.t) : Term.t =
  let go = rewrite f in
  match f t with
  | Some t' -> t'
  | None -> (
      match t with
      | Term.Var _ | Term.Int _ | Term.Real _ | Term.Bool _ -> t
      | Term.Binop (op, a, b) -> Term.mk_binop op (go a) (go b)
      | Term.Neg a -> Term.neg (go a)
      | Term.Cmp (op, a, b) -> Term.mk_cmp op (go a) (go b)
      | Term.Eq (a, b) -> Term.eq (go a) (go b)
      | Term.Ne (a, b) -> Term.ne (go a) (go b)
      | Term.And ts -> Term.mk_and (List.map go ts)
      | Term.Or ts -> Term.mk_or (List.map go ts)
      | Term.Not a -> Term.mk_not (go a)
      | Term.Imp (a, b) -> Term.mk_imp (go a) (go b)
      | Term.Iff (a, b) -> Term.mk_iff (go a) (go b)
      | Term.Ite (c, a, b) -> Term.ite (go c) (go a) (go b)
      | Term.App (g, ts) -> Term.app g (List.map go ts))

(** The historical div/mod unsoundness, reinstated test-only: rewrite
    every [Mod (a, c)] into its Euclidean remainder
    [((a mod |c|) + |c|) mod |c|] before asking the real solver. The
    broken solver then claims e.g. [y % 3 >= 0] valid, which brute
    force refutes at [y = -1]. *)
let rec euclid (t : Term.t) : Term.t =
  rewrite
    (function
      | Term.Binop (Term.Mod, a, Term.Int c) when c <> 0 ->
          let m = Term.int (abs c) in
          Some (Term.md (Term.add (Term.md (euclid a) m) m) m)
      | _ -> None)
    t

let repro_lines (b : Oracle.bug) =
  List.length (String.split_on_char '\n' (String.trim b.Oracle.b_repro))

let solver_euclid_caught () =
  let valid t = Solver.valid (euclid t) in
  let sat t = Solver.sat (euclid t) in
  let s = Fuzz.run ~valid ~sat (cfg [ Fuzz.Solver ] 0.1) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "Euclidean mod encoding not caught"
  | b :: _ ->
      (* the shrunk term must still exhibit the mismatch, round-trip
         through the corpus codec, and be tiny *)
      let t = Repro.term_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk term still refutes the broken solver" true
        (Oracle.solver_mismatch ~valid ~sat t <> None);
      Alcotest.(check bool)
        "real solver agrees with brute force on the shrunk term" true
        (Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat t = None);
      if repro_lines b > 2 then
        Alcotest.failf "reproducer not minimal (%d lines):\n%s"
          (repro_lines b) b.Oracle.b_repro

let soundness_accept_all_caught () =
  (* worst possible checker: verifies everything *)
  let check (_ : Ast.program) = true in
  let s = Fuzz.run ~check (cfg [ Fuzz.Soundness ] 4.0) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "accept-everything checker not caught"
  | b :: _ ->
      if repro_lines b > 15 then
        Alcotest.failf "reproducer not shrunk to <= 15 lines (%d):\n%s"
          (repro_lines b) b.Oracle.b_repro;
      (* the reproducer is a well-formed program the real checker does
         not verify (otherwise the bug would be in the current tree) *)
      (match Oracle.parse_and_typecheck b.Oracle.b_repro with
      | None ->
          Alcotest.failf "reproducer does not re-parse:\n%s" b.Oracle.b_repro
      | Some prog ->
          Alcotest.(check bool)
            "real checker rejects the reproducer" false
            (try Oracle.default_check prog with _ -> false))

let fixpoint_top_caught () =
  (* broken solver: always answers Sat with the trivial top solution
     (every kappa := true), which cannot satisfy concrete query heads *)
  let solve ~kvars (_ : Flux_fixpoint.Horn.clause list) =
    let sol : Flux_fixpoint.Solve.solution = Hashtbl.create 8 in
    List.iter
      (fun (kv : Flux_fixpoint.Horn.kvar) ->
        Hashtbl.replace sol kv.Flux_fixpoint.Horn.kname [])
      kvars;
    Flux_fixpoint.Solve.Sat sol
  in
  let s = Fuzz.run ~solve (cfg [ Fuzz.Fixpoint ] 0.05) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "top-solution fixpoint solver not caught"
  | b :: _ ->
      let kvars, clauses = Repro.horn_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk system still refutes the broken solver" true
        (Oracle.fixpoint_violation ~solve kvars clauses <> None);
      Alcotest.(check bool)
        "real fixpoint solver passes its self-check on the shrunk system"
        true
        (Oracle.fixpoint_violation ~solve:Oracle.default_solve kvars clauses
        = None)

let cert_goal_swap_caught () =
  (* broken certifier: proves the right thing but stamps the
     certificate with a different goal — the replay checker's goal
     binding must catch the swap *)
  let certify t =
    Option.map
      (fun p -> { p with Proof.goal = Term.bool true })
      (Solver.certify t)
  in
  let s = Fuzz.run ~certify (cfg [ Fuzz.Cert ] 0.05) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "goal-swapping certifier not caught"
  | b :: _ ->
      let t = Repro.term_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk term still refutes the broken certifier" true
        (Oracle.cert_violation ~valid:Solver.valid ~certify t <> None);
      Alcotest.(check bool)
        "real certifier passes on the shrunk term" true
        (Oracle.cert_violation ~valid:Solver.valid ~certify:Solver.certify t
        = None)

let counterexample_lying_caught () =
  (* broken model finder: claims the empty assignment falsifies
     everything — ground evaluation must refuse the claim on any term
     that evaluates true under defaults *)
  let counterexample (_ : Term.t) = Some [] in
  let s = Fuzz.run ~counterexample (cfg [ Fuzz.Solver ] 0.05) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "lying counterexample finder not caught"
  | b :: _ ->
      let t = Repro.term_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk term still refutes the lying finder" true
        (Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat
           ~counterexample t
        <> None);
      Alcotest.(check bool)
        "real counterexamples are Eval-confirmed on the shrunk term" true
        (Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat t = None)

(** A solver context that forgets its hypothesis's definitions,
    emulated on terms: each integer [if] of the hypothesis becomes a
    variable nothing constrains, as the elaborated hypothesis reads
    without the definitions tying its [if] variables to their
    branches. *)
let context_dropping_defs_caught () =
  let valid_under lhs =
    let n = ref 0 in
    let lhs' =
      rewrite
        (function
          | Term.Ite _ as t when Term.sort_of t = Sort.Int ->
              incr n;
              Some (Term.var (Printf.sprintf "$ite%d" !n))
          | _ -> None)
        lhs
    in
    fun g -> Solver.valid (Term.mk_imp lhs' g)
  in
  let s = Fuzz.run ~valid_under (cfg [ Fuzz.Solver ] 0.1) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "context without hypothesis definitions not caught"
  | b :: _ ->
      let t = Repro.term_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk term still refutes the broken context" true
        (Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat
           ~valid_under t
        <> None);
      Alcotest.(check bool)
        "the real context agrees with valid on the shrunk term" true
        (Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat t = None);
      if repro_lines b > 2 then
        Alcotest.failf "reproducer not minimal (%d lines):\n%s"
          (repro_lines b) b.Oracle.b_repro

let incremental_lying_caught () =
  (* broken incremental schedule: claims Sat with the empty solution
     table no matter what — diverges from the reference sweep whenever
     the system is Unsat or solves any kappa non-trivially *)
  let incremental ~kvars:(_ : Flux_fixpoint.Horn.kvar list)
      (_ : Flux_fixpoint.Horn.clause list) =
    Flux_fixpoint.Solve.Sat (Hashtbl.create 1)
  in
  let s = Fuzz.run ~incremental (cfg [ Fuzz.Incremental ] 0.1) in
  match Fuzz.summary_bugs s with
  | [] -> Alcotest.fail "lying incremental schedule not caught"
  | b :: _ ->
      let kvars, clauses = Repro.horn_of_string b.Oracle.b_repro in
      Alcotest.(check bool)
        "shrunk system still exposes the broken schedule" true
        (Oracle.incremental_mismatch ~incremental kvars clauses <> None);
      Alcotest.(check bool)
        "real incremental schedule matches the reference on the shrunk system"
        true
        (Oracle.incremental_mismatch ~incremental:Oracle.default_incremental
           kvars clauses
        = None)

(* ------------------------------------------------------------------ *)
(* Generator / frontend drift                                          *)
(* ------------------------------------------------------------------ *)

(** Every generated program must parse and typecheck: a [Frontend]
    verdict means the generator and the grammar drifted apart, which
    silently erodes soundness-oracle coverage. Pinned to zero. *)
let no_frontend_rejects () =
  let root = Rng.make 7 in
  for case = 0 to 79 do
    let src = Pgen.gen (Rng.split root case) in
    match Oracle.parse_and_typecheck src with
    | Some _ -> ()
    | None -> Alcotest.failf "case %d rejected by the frontend:\n%s" case src
  done

(** The soundness oracle must actually exercise the checker: over a
    fixed window, a healthy fraction of generated programs verifies
    (otherwise the oracle is vacuous). *)
let acceptance_mix () =
  let root = Rng.make 42 in
  let accepted = ref 0 in
  for case = 0 to 29 do
    let src = Pgen.gen (Rng.split root case) in
    match Oracle.parse_and_typecheck src with
    | None -> ()
    | Some prog -> if (try Oracle.default_check prog with _ -> false) then incr accepted
  done;
  if !accepted < 5 then
    Alcotest.failf "generator too hostile: only %d/30 programs verified"
      !accepted

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                  *)
(* ------------------------------------------------------------------ *)

(** [program_to_source] must be re-parseable and idempotent
    (print o parse o print = print), and re-parsing must not change
    the checker's verdict. *)
let printer_round_trip () =
  let root = Rng.make 1234 in
  for case = 0 to 39 do
    let src = Pgen.gen (Rng.split root case) in
    match Oracle.parse_and_typecheck src with
    | None -> Alcotest.failf "case %d: generated program rejected" case
    | Some prog -> (
        let printed = Ast.program_to_source prog in
        match Oracle.parse_and_typecheck printed with
        | None ->
            Alcotest.failf "case %d: printed program does not re-parse:\n%s"
              case printed
        | Some prog2 ->
            Alcotest.(check string)
              (Printf.sprintf "case %d: print is idempotent" case)
              printed
              (Ast.program_to_source prog2);
            let verdict p = try Oracle.default_check p with _ -> false in
            Alcotest.(check bool)
              (Printf.sprintf "case %d: verdict preserved" case)
              (verdict prog) (verdict prog2))
  done

(* ------------------------------------------------------------------ *)
(* Hash-consing invariants (property tests over Tgen terms)            *)
(* ------------------------------------------------------------------ *)

(** Rebuild a term bottom-up through the same smart constructors; on
    an interned term the result must be physically equal. *)
let rec rebuild (t : Term.t) : Term.t =
  match t with
  | Term.Var (x, s) -> Term.var ~sort:s x
  | Term.Int n -> Term.int n
  | Term.Real x -> Term.real x
  | Term.Bool b -> Term.bool b
  | Term.Binop (op, a, b) -> Term.mk_binop op (rebuild a) (rebuild b)
  | Term.Neg a -> Term.neg (rebuild a)
  | Term.Cmp (op, a, b) -> Term.mk_cmp op (rebuild a) (rebuild b)
  | Term.Eq (a, b) -> Term.eq (rebuild a) (rebuild b)
  | Term.Ne (a, b) -> Term.ne (rebuild a) (rebuild b)
  | Term.And ts -> Term.mk_and (List.map rebuild ts)
  | Term.Or ts -> Term.mk_or (List.map rebuild ts)
  | Term.Not a -> Term.mk_not (rebuild a)
  | Term.Imp (a, b) -> Term.mk_imp (rebuild a) (rebuild b)
  | Term.Iff (a, b) -> Term.mk_iff (rebuild a) (rebuild b)
  | Term.Ite (c, a, b) -> Term.ite (rebuild c) (rebuild a) (rebuild b)
  | Term.App (f, ts) -> Term.app f (List.map rebuild ts)

let hash_consing_props () =
  let root = Rng.make 0xC0FFEE in
  for case = 0 to 199 do
    let t = Tgen.gen (Rng.split root case) in
    let t' = rebuild t in
    if not (Term.equal t t') then
      Alcotest.failf "case %d: rebuild not structurally equal to original"
        case;
    Alcotest.(check int)
      (Printf.sprintf "case %d: hash stable under rebuild" case)
      (Term.hash t) (Term.hash t');
    if Term.internable t && not (t == t') then
      Alcotest.failf
        "case %d: structurally equal internable terms not physically shared"
        case;
    (* the memoized free-variable set matches a fold-based recount *)
    let folded =
      Term.fold_vars (fun acc x _ -> x :: acc) [] t
      |> List.sort_uniq compare
    in
    Alcotest.(check (list string))
      (Printf.sprintf "case %d: free_vars memo agrees with fold_vars" case)
      folded
      (Term.VarSet.elements (Term.free_vars t));
    Alcotest.(check (list string))
      (Printf.sprintf "case %d: free_vars_sorted agrees" case)
      folded
      (List.sort compare (List.map fst (Term.free_vars_sorted t)))
  done

(* ------------------------------------------------------------------ *)
(* Reproducer codecs                                                   *)
(* ------------------------------------------------------------------ *)

let term_codec_round_trip () =
  let root = Rng.make 99 in
  for case = 0 to 99 do
    let t = Tgen.gen (Rng.split root case) in
    let t' = Repro.term_of_string (Repro.term_to_string t) in
    if not (Term.equal t t') then
      Alcotest.failf "case %d: term codec round-trip changed the term:\n%s"
        case (Repro.term_to_string t)
  done

let horn_codec_round_trip () =
  let root = Rng.make 2718 in
  for case = 0 to 49 do
    let { Hgen.kvars; clauses } = Hgen.gen (Rng.split root case) in
    let s = Repro.horn_to_string kvars clauses in
    let kvars', clauses' = Repro.horn_of_string s in
    Alcotest.(check string)
      (Printf.sprintf "case %d: horn codec round-trip" case)
      s
      (Repro.horn_to_string kvars' clauses')
  done

(* ------------------------------------------------------------------ *)
(* Absint oracle meta-tests                                            *)
(* ------------------------------------------------------------------ *)

(** A discharge layer that answers every clause must be refuted by the
    first solver-invalid term the generator produces, and the shrunk
    reproducer must still refute it while the real layer stays sound. *)
let absint_lying_discharge_caught () =
  let try_valid (_ : Term.t) = true in
  let root = Rng.make 0 in
  let rec find case =
    if case > 400 then Alcotest.fail "lying discharge layer not caught"
    else
      match
        Oracle.absint_case ~try_valid ~seed:0 ~case (Rng.split root case)
      with
      | Oracle.Bug b ->
          Alcotest.(check string) "term reproducer" "aterm" b.Oracle.b_ext;
          let t = Repro.term_of_string b.Oracle.b_repro in
          Alcotest.(check bool)
            "shrunk term still refutes the lying layer" true
            (Oracle.discharge_mismatch ~try_valid t <> None);
          Alcotest.(check bool)
            "the real discharge layer is sound on the shrunk term" true
            (Oracle.discharge_mismatch t = None)
      | _ -> find (case + 1)
  in
  find 0

(** An abstract interpreter claiming every concrete state escapes must
    be caught on the first runnable program, and the real analysis must
    contain the shrunk reproducer's traces. *)
let absint_broken_containment_caught () =
  let contains (_ : Flux_absint.Absint.astate) (_ : int -> int option) =
    false
  in
  let root = Rng.make 0 in
  let rec find case =
    if case > 200 then Alcotest.fail "broken containment not caught"
    else
      match
        Oracle.absint_case ~contains ~seed:0 ~case (Rng.split root case)
      with
      | Oracle.Bug b ->
          Alcotest.(check string) "program reproducer" "airs" b.Oracle.b_ext;
          Alcotest.(check bool)
            "the real abstract states contain the shrunk program's traces"
            true
            (Oracle.absint_containment ~input_rng:(Rng.make 0)
               b.Oracle.b_repro
            = None)
      | _ -> find (case + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

(** Replay every checked-in reproducer in [fuzz-corpus/] against the
    current tree: each one was a real bug once, so it must stay fixed.
    The directory is globbed into the test deps; unknown extensions
    (README.md) are ignored. *)
let corpus_dir = "../fuzz-corpus"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus_replay () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list |> List.sort compare
    else []
  in
  List.iter
    (fun name ->
      let path = Filename.concat corpus_dir name in
      let body = read_file path in
      match Filename.extension name with
      | ".rs" -> (
          match
            Oracle.soundness_violation ~check:Oracle.default_check
              ~input_rng:(Rng.make 0) body
          with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d)
      | ".term" -> (
          let t = Repro.term_of_string body in
          match
            Oracle.solver_mismatch ~valid:Solver.valid ~sat:Solver.sat t
          with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d)
      | ".cterm" -> (
          let t = Repro.term_of_string body in
          match
            Oracle.cert_violation ~valid:Solver.valid
              ~certify:Solver.certify t
          with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d)
      | ".airs" -> (
          match Oracle.absint_containment ~input_rng:(Rng.make 0) body with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d)
      | ".aterm" -> (
          let t = Repro.term_of_string body in
          match Oracle.discharge_mismatch t with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d)
      | ".horn" -> (
          let kvars, clauses = Repro.horn_of_string body in
          (match
             Oracle.fixpoint_violation ~solve:Oracle.default_solve kvars
               clauses
           with
          | None -> ()
          | Some d -> Alcotest.failf "%s: regressed — %s" name d);
          match
            Oracle.incremental_mismatch
              ~incremental:Oracle.default_incremental kvars clauses
          with
          | None -> ()
          | Some d -> Alcotest.failf "%s: schedules diverged — %s" name d)
      | _ -> ())
    files

let tests =
  ( "fuzz",
    [
      Alcotest.test_case "campaign is deterministic, zero bugs" `Slow
        determinism;
      Alcotest.test_case "case counts independent of seed" `Quick
        seed_sensitivity;
      Alcotest.test_case "seeded Euclidean mod solver bug caught" `Slow
        solver_euclid_caught;
      Alcotest.test_case "seeded accept-all checker caught, shrunk <= 15 lines"
        `Slow soundness_accept_all_caught;
      Alcotest.test_case "seeded top-solution fixpoint bug caught" `Quick
        fixpoint_top_caught;
      Alcotest.test_case "seeded lying incremental schedule caught" `Quick
        incremental_lying_caught;
      Alcotest.test_case "seeded goal-swapping certifier caught" `Quick
        cert_goal_swap_caught;
      Alcotest.test_case "seeded lying counterexample finder caught" `Quick
        counterexample_lying_caught;
      Alcotest.test_case "no frontend rejects over 80 seeds" `Slow
        no_frontend_rejects;
      Alcotest.test_case "checker accepts a healthy fraction" `Slow
        acceptance_mix;
      Alcotest.test_case "printer round-trip idempotent, verdict stable" `Slow
        printer_round_trip;
      Alcotest.test_case "hash-consing: rebuild shares, memos agree" `Quick
        hash_consing_props;
      Alcotest.test_case "term reproducer codec round-trips" `Quick
        term_codec_round_trip;
      Alcotest.test_case "horn reproducer codec round-trips" `Quick
        horn_codec_round_trip;
      Alcotest.test_case "seeded lying discharge layer caught" `Quick
        absint_lying_discharge_caught;
      Alcotest.test_case "seeded broken γ-containment caught" `Quick
        absint_broken_containment_caught;
      Alcotest.test_case "fuzz-corpus reproducers stay fixed" `Quick
        corpus_replay;
      Alcotest.test_case "seeded context without hypothesis definitions caught"
        `Quick context_dropping_defs_caught;
    ] )
