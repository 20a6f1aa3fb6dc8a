(** The differential oracles.

    Each oracle examines one randomly generated case and returns a
    {!verdict} — with any bug already shrunk to a minimal reproducer.
    All four exploit verdicts with a {e definite} polarity, so a
    mismatch is always a real bug, never solver incompleteness showing
    through:

    - {b soundness} — executable Theorem 3.2. If the checker verifies a
      program, running it on any input satisfying its precondition must
      not fault (no out-of-bounds access, no division by zero), and any
      produced value must satisfy the declared return refinement.
      Divergence (fuel exhaustion) is {e not} a violation: verification
      is partial-correctness.
    - {b solver differential} — [Solver.valid t = true] asserts truth
      under {e every} integer/boolean assignment, so one falsifying
      assignment in a finite box refutes it; dually a satisfying
      assignment refutes [Solver.sat t = false]. (The converses prove
      nothing — [valid = false] may be abstraction incompleteness — so
      they are not checked.) Each case also asks
      [Solver.valid_under] the implications it splits into, and its
      answers and statistics must equal [Solver.valid]'s exactly.
    - {b fixpoint self-check} — a [Sat] answer from the fixpoint solver
      claims the κ assignment satisfies every Horn clause; substitute
      it back and re-verify each clause independently of the weakening
      loop's worklist bookkeeping.
    - {b certificate replay} — a [valid] verdict that produces a proof
      certificate must be accepted by the independent replay checker
      ({!Flux_cert.Replay}), which shares no solver code; rejection of
      a fresh (or round-tripped) certificate is always a bug in either
      the certifying solver or the checker.
    - {b full-vs-incremental differential} — the SCC-sliced schedule
      ({!Flux_fixpoint.Solve.solve_clauses_incremental}) promises
      verdicts, failure order and rendered solutions {e byte-identical}
      to the reference sweep ({!Reference.solve_clauses});
      any textual divergence on any generated κ system is a bug in the
      dependency graph, the skip bookkeeping, or the memo layers.

    The checker/solver entry points are injectable so the test suite
    can seed known-broken implementations (e.g. a Euclidean remainder
    encoding) and assert the pipeline catches and shrinks them.

    Every case derives its randomness from an {!Rng.t} the caller
    obtained via {!Rng.split}, and no oracle ever {e advances} the
    generator it is handed beyond its own case — results are a pure
    function of (seed, case index). *)

module Ast = Flux_syntax.Ast
module Checker = Flux_check.Checker
module Interp = Flux_interp.Interp
open Flux_smt
open Flux_fixpoint

type bug = {
  b_oracle : string;
      (** "soundness" | "solver" | "cert" | "fixpoint" | "incremental" *)
  b_seed : int;  (** campaign seed (reprinted in every report) *)
  b_case : int;  (** global case index within the campaign *)
  b_descr : string;  (** one-line description of the violation *)
  b_repro : string;  (** shrunk reproducer file contents *)
  b_ext : string;
      (** corpus file extension: "rs" / "term" / "cterm" / "horn" *)
}

(** Per-case outcome. [Skip] means the case tested nothing (checker
    rejected the program, or no precondition-satisfying input was
    found); [Frontend] means the generator emitted something the
    parser/typechecker rejected — not a soundness bug, but counted
    separately so generator/frontend drift is visible (the meta-tests
    pin it to zero). *)
type verdict = Ok | Skip | Frontend | Bug of bug

let shrink_budget = 400

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)
(* ------------------------------------------------------------------ *)

(** A pure description of one argument tuple; fresh [Interp.value]s are
    built per run because vector arguments are mutated in place. *)
type ival = IInt of int | IBool of bool | IVec of int list

let build_value = function
  | IInt n -> Interp.VInt n
  | IBool b -> Interp.VBool b
  | IVec ns ->
      Interp.VRefCell
        (ref
           (Interp.VVec
              (Interp.vec_of_list (List.map (fun n -> Interp.VInt n) ns))))

let ival_to_string = function
  | IInt n -> string_of_int n
  | IBool b -> string_of_bool b
  | IVec ns ->
      Printf.sprintf "vec![%s]" (String.concat ", " (List.map string_of_int ns))

(** Sample one candidate argument for a parameter type; [None] when the
    type is outside the sampled subset (structs, floats). *)
let rec gen_ival (rng : Rng.t) (ty : Ast.ty) : ival option =
  match ty with
  | Ast.TInt Ast.Usize -> Some (IInt (Rng.range rng 0 5))
  | Ast.TInt _ -> Some (IInt (Rng.range rng (-4) 4))
  | Ast.TBool -> Some (IBool (Rng.bool rng))
  | Ast.TVec (Ast.TInt _) ->
      let len = Rng.range rng 0 4 in
      Some (IVec (List.init len (fun _ -> Rng.range rng (-3) 3)))
  | Ast.TRef (_, t) -> gen_ival rng t
  | _ -> None

let fuel = 200_000
let input_attempts = 16
let max_runs = 6

(** Run the parsed program's [f] on precondition-satisfying inputs;
    return a violation description if any run faults (or breaks its
    return refinement). Only splits [rng], never advances it. *)
let run_on_inputs (rng : Rng.t) (prog : Ast.program) : string option =
  match Ast.find_fn prog "f" with
  | None -> None
  | Some fd ->
      let tys = List.map snd fd.Ast.fn_params in
      let rec attempt i runs =
        if i >= input_attempts || runs >= max_runs then None
        else
          let case_rng = Rng.split rng i in
          match
            List.fold_left
              (fun acc ty ->
                match acc with
                | None -> None
                | Some xs -> (
                    match gen_ival case_rng ty with
                    | Some v -> Some (v :: xs)
                    | None -> None))
              (Some []) tys
          with
          | None -> None (* unsampleable parameter type: skip program *)
          | Some rev_ivals -> (
              let ivals = List.rev rev_ivals in
              let args = List.map build_value ivals in
              match Spec_eval.precond_holds fd args with
              | Some true -> (
                  let call =
                    Printf.sprintf "f(%s)"
                      (String.concat ", " (List.map ival_to_string ivals))
                  in
                  match Interp.run ~fuel prog "f" args with
                  | Interp.OFault f ->
                      Some
                        (Format.asprintf "%s faulted: %a" call Interp.pp_fault
                           f)
                  | Interp.OValue v -> (
                      match Spec_eval.postcond_holds fd args v with
                      | Some false ->
                          Some
                            (Format.asprintf
                               "%s returned %a, violating its return \
                                refinement"
                               call Interp.pp_value v)
                      | _ -> attempt (i + 1) (runs + 1))
                  | Interp.ODiverged -> attempt (i + 1) (runs + 1))
              | _ -> attempt (i + 1) runs)
      in
      attempt 0 0

let parse_and_typecheck (src : string) : Ast.program option =
  match
    let prog = Flux_syntax.Parser.parse_program src in
    Flux_syntax.Typeck.check_program prog;
    prog
  with
  | prog -> Some prog
  | exception _ -> None

(** The full pipeline on source text: parse, typecheck, verify with
    [check], and if verified execute on sampled inputs. Used both for
    fresh cases and (with the same [input_rng]) by the shrinker's
    failure predicate. *)
let soundness_violation ~(check : Ast.program -> bool) ~(input_rng : Rng.t)
    (src : string) : string option =
  match parse_and_typecheck src with
  | None -> None
  | Some prog -> (
      match check prog with
      | exception _ -> None
      | false -> None
      | true -> run_on_inputs input_rng prog)

let default_check (prog : Ast.program) : bool =
  Checker.report_ok (Checker.check_program_ast prog)

let soundness_case ?(check = default_check) ~(seed : int) ~(case : int)
    (rng : Rng.t) : verdict =
  let gen_rng = Rng.split rng 0 in
  let input_rng = Rng.split rng 1 in
  let src = Pgen.gen gen_rng in
  match parse_and_typecheck src with
  | None -> Frontend
  | Some prog -> (
      match check prog with
      | exception _ -> Skip
      | false -> Skip
      | true -> (
          match run_on_inputs input_rng prog with
          | None -> Ok
          | Some descr ->
              let fails s = soundness_violation ~check ~input_rng s <> None in
              let repro =
                Shrink.minimize_program ~budget:shrink_budget fails prog
              in
              Bug
                {
                  b_oracle = "soundness";
                  b_seed = seed;
                  b_case = case;
                  b_descr = descr;
                  b_repro = repro;
                  b_ext = "rs";
                }))

(* ------------------------------------------------------------------ *)
(* Solver differential                                                 *)
(* ------------------------------------------------------------------ *)

(** The implications a case [t] splits into, for the context check:
    the hypothesis is [a] when [t = a ⇒ b], else [t]; the goals are
    [b], up to four atoms of [t], and [false] (an implication
    {!Term.mk_imp} folds). *)
let implications (t : Term.t) : Term.t * Term.t list =
  let rec atoms acc (t : Term.t) =
    match t with
    | Term.Cmp _ | Term.Eq _ | Term.Ne _ | Term.Var _ ->
        if List.exists (Term.equal t) acc then acc else t :: acc
    | Term.And ts | Term.Or ts -> List.fold_left atoms acc ts
    | Term.Not a -> atoms acc a
    | Term.Imp (a, b) | Term.Iff (a, b) -> atoms (atoms acc a) b
    | _ -> acc
  in
  let goals = List.filteri (fun i _ -> i < 4) (List.rev (atoms [] t)) in
  match t with
  | Term.Imp (a, b) -> (a, (b :: goals) @ [ Term.ff ])
  | _ -> (t, goals @ [ Term.ff ])

(** A context mismatch for [t], if any: [valid_under lhs] (one
    hypothesis, asked every goal in turn) must give [Solver.valid
    (lhs ⇒ g)]'s answers with the same query and theory-check counts,
    the same largest skeleton, and no more Fourier–Motzkin work of the
    theory checks ([lia.fm_rows], [lia.fm_row_copies], less the div/mod
    sign checks' share, which a context may decide once for many
    goals): the context decides the same systems in the same order, and
    a component no goal touches once for all goals. Both sides decide
    disequality cases through [Lia]'s one prepared split, so this
    compares the prepared query path with the rebuilt one; the case
    split itself is pinned against the list procedure kept in the smt
    tests. *)
let context_mismatch ~(valid_under : Term.t -> Term.t -> bool) (t : Term.t) :
    string option =
  let lhs, goals = implications t in
  let run ask =
    let s = Solver.stats () in
    let q0 = s.queries and c0 = s.theory_checks in
    let max0 = s.max_atoms in
    s.max_atoms <- 0;
    let theory key =
      Profile.count ("lia." ^ key) - Profile.count ("solver.divmod_" ^ key)
    in
    let r0 = theory "fm_rows" and p0 = theory "fm_row_copies" in
    let rs = List.map ask goals in
    let stats =
      [
        s.queries - q0;
        s.theory_checks - c0;
        s.max_atoms;
        theory "fm_rows" - r0;
        theory "fm_row_copies" - p0;
      ]
    in
    s.max_atoms <- max max0 s.max_atoms;
    (rs, stats)
  in
  let got, got_stats = run (valid_under lhs) in
  let want, want_stats = run (fun g -> Solver.valid (Term.mk_imp lhs g)) in
  match List.filteri (fun i _ -> List.nth got i <> List.nth want i) goals with
  | g :: _ ->
      Some
        (Format.asprintf "context verdict differs from valid on goal %a"
           Term.pp g)
  | [] when List.filteri (fun i _ -> i < 3) got_stats
            <> List.filteri (fun i _ -> i < 3) want_stats
            || not (List.for_all2 ( <= ) got_stats want_stats) ->
      Some "context statistics differ from valid's"
  | [] -> None

(** A definite-polarity mismatch for [t], if any: a falsifying
    assignment refuting [valid t = true], a satisfying assignment
    refuting [sat t = false], or a claimed counterexample model that
    ground evaluation does not confirm (every [invalid] claim must come
    with an [Eval]-confirmed falsifying model). *)
let definite_mismatch ~(valid : Term.t -> bool) ~(sat : Term.t -> bool)
    ?(counterexample = Solver.counterexample) (t : Term.t) : string option =
  try
    let vars = Term.free_vars_sorted t in
    let render env =
      String.concat ", "
        (List.map
           (fun (x, _) ->
             Format.asprintf "%s = %a" x Eval.pp_value (env x))
           vars)
    in
    let search want =
      Eval.find_assignment ~ints:Tgen.int_box vars (fun env ->
          match Eval.eval_bool env t with
          | b when b = want -> Some (render env)
          | _ -> None
          | exception Division_by_zero -> None)
    in
    let refuted_valid =
      if valid t then
        match search false with
        | Some a -> Some ("claimed valid, falsified by " ^ a)
        | None -> None
      else None
    in
    match refuted_valid with
    | Some _ -> refuted_valid
    | None -> (
        let refuted_sat =
          if sat t then None
          else
            match search true with
            | Some a -> Some ("claimed unsat, satisfied by " ^ a)
            | None -> None
        in
        match refuted_sat with
        | Some _ -> refuted_sat
        | None -> (
            (* counterexample cross-check: a model claiming to falsify
               [t] must be confirmed by ground evaluation *)
            match counterexample t with
            | None -> None
            | Some model -> (
                let env x =
                  match List.assoc_opt x model with
                  | Some v -> v
                  | None -> (
                      match List.assoc_opt x vars with
                      | Some Sort.Bool -> Eval.VBool false
                      | _ -> Eval.VInt 0)
                in
                let rendered =
                  String.concat ", "
                    (List.map
                       (fun (x, v) ->
                         Format.asprintf "%s = %a" x Eval.pp_value v)
                       model)
                in
                match Eval.eval_bool env t with
                | false -> None
                | true ->
                    Some
                      ("claimed counterexample does not falsify: " ^ rendered)
                | exception Division_by_zero -> None)))
  with Eval.Unsupported _ -> None

(** {!definite_mismatch}, else a {!context_mismatch}. *)
let solver_mismatch ~valid ~sat ?counterexample
    ?(valid_under = fun l -> Solver.valid_under (Solver.hyp l)) (t : Term.t) :
    string option =
  match definite_mismatch ~valid ~sat ?counterexample t with
  | Some _ as m -> m
  | None -> context_mismatch ~valid_under t

let solver_case ?(valid = Solver.valid) ?(sat = Solver.sat)
    ?(counterexample = Solver.counterexample) ?valid_under ~(seed : int)
    ~(case : int) (rng : Rng.t) : verdict =
  let t = Tgen.gen rng in
  let mismatch t = solver_mismatch ~valid ~sat ~counterexample ?valid_under t in
  match mismatch t with
  | None -> Ok
  | Some _ ->
      let fails t' =
        match mismatch t' with
        | Some _ -> true
        | None -> false
        | exception _ -> false
      in
      let t' = Shrink.minimize_term ~budget:shrink_budget fails t in
      let descr =
        match mismatch t' with
        | Some d -> Format.asprintf "%a — %s" Term.pp t' d
        | None | (exception _) -> Format.asprintf "%a" Term.pp t'
      in
      Bug
        {
          b_oracle = "solver";
          b_seed = seed;
          b_case = case;
          b_descr = descr;
          b_repro = Repro.term_to_string t';
          b_ext = "term";
        }

(* ------------------------------------------------------------------ *)
(* Certificate replay                                                   *)
(* ------------------------------------------------------------------ *)

module Replay = Flux_cert.Replay

(** A certificate-pipeline violation for [t], if any. The polarity is
    definite on the certified side: [certify] returning [None] is
    solver incompleteness (not a bug), but a produced certificate must
    (a) name exactly the goal it was asked about, (b) be accepted by
    the independent replay checker, and (c) still be accepted after a
    print/parse round-trip — replay shares no code with the solver, so
    acceptance is independent evidence for the [valid] verdict. *)
let cert_violation ~(valid : Term.t -> bool)
    ~(certify : Term.t -> Proof.t option) (t : Term.t) : string option =
  if not (try valid t with _ -> false) then None
  else
    match (try certify t with _ -> None) with
    | None -> None
    | Some p ->
        if not (Term.equal p.Proof.goal t) then
          Some "certificate names a different goal than the query"
        else (
          match Replay.check ~goal:t p with
          | Error e ->
              Some
                ("replay rejected a fresh certificate: "
                ^ Replay.error_to_string e)
          | Ok () -> (
              match Replay.check_string ~goal:t (Proof.to_string p) with
              | Error e ->
                  Some
                    ("replay rejected the round-tripped certificate: "
                    ^ Replay.error_to_string e)
              | Ok () -> None))

let cert_case ?(valid = Solver.valid) ?(certify = Solver.certify)
    ~(seed : int) ~(case : int) (rng : Rng.t) : verdict =
  let t = Tgen.gen rng in
  match cert_violation ~valid ~certify t with
  | None -> Ok
  | Some _ ->
      let fails t' =
        match cert_violation ~valid ~certify t' with
        | Some _ -> true
        | None -> false
        | exception _ -> false
      in
      let t' = Shrink.minimize_term ~budget:shrink_budget fails t in
      let descr =
        match cert_violation ~valid ~certify t' with
        | Some d -> Format.asprintf "%a — %s" Term.pp t' d
        | None | (exception _) -> Format.asprintf "%a" Term.pp t'
      in
      Bug
        {
          b_oracle = "cert";
          b_seed = seed;
          b_case = case;
          b_descr = descr;
          b_repro = Repro.term_to_string t';
          b_ext = "cterm";
        }

(* ------------------------------------------------------------------ *)
(* Fixpoint self-check                                                 *)
(* ------------------------------------------------------------------ *)

let default_solve ~kvars clauses =
  Solve.solve_clauses_incremental ~kvars clauses

(** A violated fixpoint invariant for this κ system, if any: a [Sat]
    solution failing re-validation, or an [Unsat] failure list that
    disagrees with re-checking its own clauses. *)
let fixpoint_violation
    ~(solve : kvars:Horn.kvar list -> Horn.clause list -> Solve.result)
    (kvars : Horn.kvar list) (clauses : Horn.clause list) : string option =
  match solve ~kvars clauses with
  | exception _ -> None
  | Solve.Sat sol -> (
      match Solve.validate_solution ~kvars sol clauses with
      | [] -> None
      | failing ->
          Some
            (Format.asprintf
               "Sat solution fails re-validation on clause(s) %s under@ %a"
               (String.concat ", "
                  (List.map (fun c -> string_of_int c.Horn.tag) failing))
               Solve.pp_solution sol))
  | Solve.Unsat (failures, sol) -> (
      (* every reported failure must really fail under the solution *)
      match
        List.find_opt
          (fun f -> Solve.check_clause ~kvars sol f.Solve.f_clause)
          failures
      with
      | Some f ->
          Some
            (Printf.sprintf
               "Unsat failure on clause %d passes re-checking (phantom \
                failure)"
               f.Solve.f_tag)
      | None -> None)

let fixpoint_case ?(solve = default_solve) ~(seed : int) ~(case : int)
    (rng : Rng.t) : verdict =
  let { Hgen.kvars; clauses } = Hgen.gen rng in
  match fixpoint_violation ~solve kvars clauses with
  | None -> Ok
  | Some _ ->
      let fails cls =
        match fixpoint_violation ~solve kvars cls with
        | Some _ -> true
        | None -> false
        | exception _ -> false
      in
      let clauses' =
        Shrink.minimize_clauses ~budget:shrink_budget fails clauses
      in
      let descr =
        match fixpoint_violation ~solve kvars clauses' with
        | Some d -> d
        | None | (exception _) -> "fixpoint invariant violated"
      in
      Bug
        {
          b_oracle = "fixpoint";
          b_seed = seed;
          b_case = case;
          b_descr = descr;
          b_repro = Repro.horn_to_string kvars clauses';
          b_ext = "horn";
        }

(* ------------------------------------------------------------------ *)
(* Full-vs-incremental differential                                    *)
(* ------------------------------------------------------------------ *)

(** Render everything the incremental schedule promises to reproduce
    byte-for-byte: the verdict tag, the failing clause tags in report
    order, and the pretty-printed solution. *)
let render_result (r : Solve.result) : string =
  match r with
  | Solve.Sat sol -> Format.asprintf "Sat@.%a" Solve.pp_solution sol
  | Solve.Unsat (failures, sol) ->
      Format.asprintf "Unsat [%s]@.%a"
        (String.concat ","
           (List.map (fun f -> string_of_int f.Solve.f_tag) failures))
        Solve.pp_solution sol

let default_incremental = default_solve

(** A divergence between the reference full sweep and the incremental
    schedule on this κ system, if any. Exceptions count as outcomes:
    both schedules must raise the same way (e.g. {!Solve.Unbound_kvar}
    on the same κ) or the case is a bug. *)
let incremental_mismatch
    ~(incremental :
       kvars:Horn.kvar list -> Horn.clause list -> Solve.result)
    (kvars : Horn.kvar list) (clauses : Horn.clause list) : string option =
  let outcome solve =
    match solve ~kvars clauses with
    | r -> render_result r
    | exception Solve.Unbound_kvar k -> "raised Unbound_kvar " ^ k
  in
  let full = outcome (fun ~kvars cls -> Reference.solve_clauses ~kvars cls) in
  let inc = outcome incremental in
  if String.equal full inc then None
  else
    Some
      (Printf.sprintf "schedules disagree\n--- full ---\n%s\n--- incremental ---\n%s"
         full inc)

let incremental_case ?(incremental = default_incremental) ~(seed : int)
    ~(case : int) (rng : Rng.t) : verdict =
  let { Hgen.kvars; clauses } = Hgen.gen rng in
  match incremental_mismatch ~incremental kvars clauses with
  | None -> Ok
  | Some _ ->
      let fails cls =
        match incremental_mismatch ~incremental kvars cls with
        | Some _ -> true
        | None -> false
        | exception _ -> false
      in
      let clauses' =
        Shrink.minimize_clauses ~budget:shrink_budget fails clauses
      in
      let descr =
        match incremental_mismatch ~incremental kvars clauses' with
        | Some d -> d
        | None | (exception _) -> "schedules disagree"
      in
      Bug
        {
          b_oracle = "incremental";
          b_seed = seed;
          b_case = case;
          b_descr = descr;
          b_repro = Repro.horn_to_string kvars clauses';
          b_ext = "horn";
        }

(* ------------------------------------------------------------------ *)
(* Abstract interpretation                                             *)
(* ------------------------------------------------------------------ *)

module Absint = Flux_absint.Absint
module Discharge = Flux_absint.Discharge

(** The integer view of a concrete local, exactly as the abstract
    domain models it: the value of an integer local, the {e length} of
    a vector local, nothing for anything else ([contains] treats an
    unviewable local as unconstrained). *)
let local_view (locals : Interp.value ref array) (l : int) : int option =
  if l < 0 || l >= Array.length locals then None
  else
    match !(locals.(l)) with
    | Interp.VInt n -> Some n
    | Interp.VVec v -> Some v.Interp.len
    | _ -> None

(** Run the parsed program's [f] on sampled inputs with a probe at
    every block entry asserting γ-containment: the concrete frame must
    lie in the abstract state the fixpoint computed for that point.
    No precondition filtering — the abstract entry state assumes
    nothing, so containment is promised on {e every} input. *)
let containment_violation ?(contains = Absint.contains)
    ~(input_rng : Rng.t) (prog : Ast.program) : string option =
  match Ast.find_fn prog "f" with
  | None -> None
  | Some fd ->
      let tys = List.map snd fd.Ast.fn_params in
      (* analyses for every body the machine executes, built on first
         probe (callee bodies included), keyed by physical identity *)
      let analyses : (Flux_mir.Ir.body * Absint.analysis) list ref = ref [] in
      let analysis_of body =
        match List.find_opt (fun (b, _) -> b == body) !analyses with
        | Some (_, a) -> a
        | None ->
            let a = Absint.analyze body in
            analyses := (body, a) :: !analyses;
            a
      in
      let violation = ref None in
      let probe body bb locals =
        if !violation = None then
          let a = analysis_of body in
          let st = Absint.block_entry a bb in
          if not (contains st (local_view locals)) then
            violation :=
              Some
                (Printf.sprintf
                   "concrete state at block entry bb%d escapes the abstract \
                    state"
                   bb)
      in
      let rec attempt i =
        if i >= input_attempts then None
        else
          let case_rng = Rng.split input_rng i in
          match
            List.fold_left
              (fun acc ty ->
                match acc with
                | None -> None
                | Some xs -> (
                    match gen_ival case_rng ty with
                    | Some v -> Some (v :: xs)
                    | None -> None))
              (Some []) tys
          with
          | None -> None (* unsampleable parameter type: skip program *)
          | Some rev_ivals -> (
              let args = List.map build_value (List.rev rev_ivals) in
              (* faults and divergence are fine — the probe has already
                 checked every block entry the execution reached *)
              ignore (Interp.run ~fuel ~probe prog "f" args);
              match !violation with
              | Some d -> Some d
              | None -> attempt (i + 1))
      in
      attempt 0

(** [containment_violation] on source text — the shrinker's failure
    predicate and the corpus replay entry point. *)
let absint_containment ?contains ~(input_rng : Rng.t) (src : string) :
    string option =
  match parse_and_typecheck src with
  | None -> None
  | Some prog -> containment_violation ?contains ~input_rng prog

(** Discharge soundness on one term: a clause the abstract environment
    answers must be solver-valid — [try_valid t = true] with
    [valid t = false] means the pre-solver would silently change a
    verdict, the one thing {!Flux_absint.Discharge} must never do. *)
let discharge_mismatch ?(try_valid = Discharge.try_valid Config.default)
    ?(valid = Solver.valid) (t : Term.t) : string option =
  if try_valid t && not (valid t) then
    Some "abstract environment discharged a clause the solver refutes"
  else None

let absint_case ?contains ?try_valid ?valid ~(seed : int) ~(case : int)
    (rng : Rng.t) : verdict =
  let gen_rng = Rng.split rng 0 in
  let input_rng = Rng.split rng 1 in
  let term_rng = Rng.split rng 2 in
  (* clause-discharge soundness on a random implication *)
  let t = Tgen.gen term_rng in
  match discharge_mismatch ?try_valid ?valid t with
  | Some d ->
      let fails t' =
        match discharge_mismatch ?try_valid ?valid t' with
        | Some _ -> true
        | None | (exception _) -> false
      in
      let t' = Shrink.minimize_term ~budget:shrink_budget fails t in
      Bug
        {
          b_oracle = "absint";
          b_seed = seed;
          b_case = case;
          b_descr = Format.asprintf "%a — %s" Term.pp t' d;
          b_repro = Repro.term_to_string t';
          b_ext = "aterm";
        }
  | None -> (
      (* γ-containment of a concrete trace *)
      let src = Pgen.gen gen_rng in
      match parse_and_typecheck src with
      | None -> Frontend
      | Some prog -> (
          match containment_violation ?contains ~input_rng prog with
          | None -> Ok
          | Some descr ->
              let fails s =
                absint_containment ?contains ~input_rng s <> None
              in
              let repro =
                Shrink.minimize_program ~budget:shrink_budget fails prog
              in
              Bug
                {
                  b_oracle = "absint";
                  b_seed = seed;
                  b_case = case;
                  b_descr = descr;
                  b_repro = repro;
                  b_ext = "airs";
                }))
