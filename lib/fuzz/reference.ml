(** The reference fixpoint schedule, and the checker pipeline over it:
    the baseline the fuzzer's [incremental] oracle, the differential
    tests and [bench/main.exe table1] compare the schedule verification
    runs ({!Flux_fixpoint.Solve}) against. {!solve_clauses} sweeps every
    κ-headed clause until no solution changes, then checks the concrete
    heads. It has no memo, no dependency graph and no skipping: it
    shares only the initial system, the sliced hypotheses and the final
    check with the solver. *)

open Flux_smt
open Flux_fixpoint
module Discharge = Flux_absint.Discharge
module Checker = Flux_check.Checker
module Genv = Flux_check.Genv

(** One weakening step for a κ-headed clause against [sol]: knock out
    the head κ's conjuncts not implied by the hypotheses, one goal at a
    time. Returns whether the κ's solution shrank. *)
let weaken_clause config (stats : Solve.stats) kenv (sol : Solve.solution)
    (cl : Horn.clause) : bool =
  match cl.Horn.head with
  | Horn.Conc _ -> false
  | Horn.Kapp (k, args) -> (
      match Hashtbl.find_opt sol k with
      | None -> raise (Solve.Unbound_kvar k)
      | Some [] -> false
      | Some conjuncts ->
          let kv = Hashtbl.find kenv k in
          let m = List.map2 (fun (x, _) a -> (x, a)) kv.Horn.kparams args in
          let sliced = Solve.sliced_hyps config kenv sol cl in
          (* The slice depends on the goal only through its
             free-variable set, and the qualifiers of one sweep mostly
             range over a handful of variable sets — share the cut
             across them. *)
          let slices = ref [] in
          let lhs rhs =
            let seed = Term.free_vars rhs in
            match
              List.find_opt (fun (s, _) -> Term.VarSet.equal s seed) !slices
            with
            | Some (_, lhs) -> lhs
            | None ->
                let lhs = sliced rhs in
                slices := (seed, lhs) :: !slices;
                lhs
          in
          let keep =
            List.filter
              (fun q ->
                stats.Solve.weaken_checks <- stats.Solve.weaken_checks + 1;
                Profile.incr "fixpoint.weaken_checks";
                let rhs = Term.subst m q in
                Discharge.valid config (Term.mk_imp (lhs rhs) rhs))
              conjuncts
          in
          if List.length keep <> List.length conjuncts then begin
            Hashtbl.replace sol k keep;
            true
          end
          else false)

(** The reference schedule: sweep every κ-headed clause until no
    solution changes, then check all concrete heads in input order. *)
let solve_clauses ?(config = Config.default) ?(qualifiers = Qualifier.default)
    ~(kvars : Horn.kvar list) (clauses : Horn.clause list) : Solve.result =
  Profile.time "fixpoint.solve_s" @@ fun () ->
  let stats = Solve.stats () in
  let kenv, sol = Solve.init_system ~qualifiers ~kvars clauses in
  let kclauses, cclauses =
    List.partition
      (fun cl -> match cl.Horn.head with Horn.Kapp _ -> true | _ -> false)
      clauses
  in
  let changed = ref true in
  while !changed do
    changed := false;
    stats.Solve.iterations <- stats.Solve.iterations + 1;
    Profile.incr "fixpoint.iterations";
    List.iter
      (fun cl ->
        if weaken_clause config stats kenv sol cl then changed := true)
      kclauses
  done;
  let failures = List.filter_map (Solve.final_check config kenv sol) cclauses in
  if failures = [] then Solve.Sat sol else Solve.Unsat (failures, sol)

(** The whole checker pipeline over the reference schedule:
    {!Checker.prepare}, {!solve_clauses} and {!Checker.finish} for each
    checked function, in declaration order. *)
let check_source (src : string) : Checker.report =
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
                  (solve_clauses ~kvars:(Checker.prepared_kvars pr)
                     (Checker.prepared_clauses pr))))
    | _ -> None
  in
  {
    Checker.rp_fns = List.filter_map check (Flux_syntax.Ast.program_fns prog);
    rp_time = 0.;
  }
