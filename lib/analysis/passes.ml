(** The lint passes behind [flux lint].

    Each pass inspects one function — its MIR, the facts the checker
    recorded while verifying it ({!Flux_check.Checker.lint_info}), and
    the fixpoint solution — and reports defects of {e meaning}, not of
    correctness: specs that hold vacuously, code no input can reach,
    inferred invariants that say nothing, stores nothing reads, and
    arithmetic the refinements do not bound. Solver queries only ever
    use the definite polarity ([Solver.sat] returning [false] is a
    proof of unsatisfiability), so every diagnostic is a theorem about
    the program, never a heuristic guess. *)

module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir
module Liveness = Flux_mir.Liveness
module Checker = Flux_check.Checker
module Absint = Flux_absint.Absint
module Dom = Flux_absint.Dom
open Flux_smt
open Flux_fixpoint

type severity = Info | Warning

let severity_str = function Info -> "info" | Warning -> "warning"

(** One lint finding. *)
type diag = {
  d_pass : string;
  d_severity : severity;
  d_fn : string;
  d_span : Ast.span;
  d_msg : string;
}

(** The pass catalog: id and one-line description, in report order.
    [overflow] is allow-by-default (like clippy's pedantic group):
    unbounded integer state — a plain accumulator loop — can never be
    proved in range, so it only runs when asked for. *)
let catalog =
  [
    ("vacuity", "function precondition is unsatisfiable (verifies vacuously)");
    ("unreachable", "no input reaches this block (path condition unsat)");
    ( "trivial-refinement",
      "every inferred \xce\xba at a loop head collapsed to true" );
    ("dead-store", "a value is assigned but never subsequently read");
    ( "div-by-zero",
      "a division or remainder whose divisor is zero on every execution \
       reaching it" );
    ( "index-bounds",
      "a vector access whose index is out of bounds on every execution \
       reaching it" );
    ( "overflow",
      "arithmetic whose operand refinements do not bound it within the \
       machine-integer range (allow-by-default)" );
  ]

let all_passes = List.map fst catalog
let default_passes = List.filter (fun p -> p <> "overflow") all_passes

(* ------------------------------------------------------------------ *)
(* Span recovery                                                       *)
(* ------------------------------------------------------------------ *)

let real_span (sp : Ast.span) : Ast.span option =
  if sp.Ast.sp_start.Ast.line = 0 then None else Some sp

(** Unit-constant assignments to compiler-generated locals are lowering
    artifacts (the value of an [if] statement whose branch returned,
    the implicit else); they carry the enclosing statement's span but
    represent no user code. *)
let artifact_stmt (body : Ir.body) = function
  | Ir.SAssign (dest, Ir.RUse (Ir.Const Ir.CUnit), _) ->
      dest.Ir.projs = []
      && body.Ir.mb_locals.(dest.Ir.base).Ir.ld_kind <> Ir.KUser
  | _ -> false

(** A block's best source anchor: its first spanned non-artifact
    statement, else a spanned call terminator. Blocks with no anchor
    are lowering artifacts (empty assert-fail targets, synthesized
    joins, branch-merge stubs) and are never reported. *)
let block_span (body : Ir.body) (bb : int) : Ast.span option =
  let blk = body.Ir.mb_blocks.(bb) in
  let stmt_span s =
    if artifact_stmt body s then None
    else
      match s with
      | Ir.SAssign (_, _, sp) | Ir.SInvariant (_, sp) -> real_span sp
      | Ir.SNop -> None
  in
  match List.find_map stmt_span blk.Ir.stmts with
  | Some sp -> Some sp
  | None -> (
      match blk.Ir.term with
      | Ir.TCall { tc_span; _ } -> real_span tc_span
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* The passes                                                          *)
(* ------------------------------------------------------------------ *)

(** Vacuity: the function's assumed entry context — resolved
    preconditions plus argument index invariants — is unsatisfiable, so
    every obligation holds for free. *)
let vacuity (fd : Ast.fn_def) (li : Checker.lint_info) : diag list =
  match li.Checker.li_precond with
  | [] -> []
  | pre ->
      if Solver.sat (Term.mk_and pre) then []
      else
        [
          {
            d_pass = "vacuity";
            d_severity = Warning;
            d_fn = fd.Ast.fn_name;
            d_span = fd.Ast.fn_span;
            d_msg =
              Printf.sprintf
                "precondition of `%s` is unsatisfiable: no input satisfies \
                 it, so the function verifies vacuously"
                fd.Ast.fn_name;
          };
        ]

(** Unreachable blocks, from two sources. Structurally dead blocks are
    the ones the checker never flowed into (code after a `return` or
    `break`). Semantically dead blocks are reached only under an entry
    hypothesis set the solver proves unsatisfiable (e.g. the branch of
    a condition contradicting a dominating test). Expected-unreachable
    blocks — the empty targets of lowered `assert!` failures — carry no
    source anchor and are skipped by {!block_span}; blocks that {e end}
    in [TUnreachable] with real statements are still reported. *)
let unreachable (fd : Ast.fn_def) (body : Ir.body) (li : Checker.lint_info) :
    diag list =
  let mk bb why =
    Option.map
      (fun sp ->
        {
          d_pass = "unreachable";
          d_severity = Warning;
          d_fn = fd.Ast.fn_name;
          d_span = sp;
          d_msg = Printf.sprintf "unreachable code: %s" why;
        })
      (block_span body bb)
  in
  let structural =
    List.filter_map
      (fun bb -> mk bb "no path from the function entry reaches it")
      li.Checker.li_dead_blocks
  in
  let semantic =
    List.filter_map
      (fun (bb, hyps) ->
        if bb = 0 || hyps = [] then None
        else if Solver.sat (Term.mk_and hyps) then None
        else mk bb "its path condition is unsatisfiable")
      li.Checker.li_blocks
  in
  structural @ semantic

(** Trivial refinements: a loop head where {e every} κ declared for the
    join template solved to [true]. The inferred "invariant" then says
    nothing about any live local — the loop verifies only if nothing
    after it needs a fact from it, which usually means the refinements
    feeding the loop are too weak (or the spec never needed the loop at
    all). Non-loop joins are exempt: an if/else merge with no residual
    facts is ordinary. *)
let trivial_refinement (fd : Ast.fn_def) (body : Ir.body)
    (li : Checker.lint_info) (sol : Solve.solution option) : diag list =
  match sol with
  | None -> []
  | Some sol ->
      List.filter_map
        (fun (bb, kvars) ->
          if (not body.Ir.mb_loop_heads.(bb)) || kvars = [] then None
          else
            let solved_true k =
              match Hashtbl.find_opt sol k with
              | Some [] -> true
              | Some _ | None -> false
            in
            if not (List.for_all solved_true kvars) then None
            else
              Option.map
                (fun sp ->
                  {
                    d_pass = "trivial-refinement";
                    d_severity = Warning;
                    d_fn = fd.Ast.fn_name;
                    d_span = sp;
                    d_msg =
                      Printf.sprintf
                        "the inferred loop invariant is trivial: all %d \
                         \xce\xba variable(s) at this loop head collapsed \
                         to `true`"
                        (List.length kvars);
                  })
                (block_span body bb))
        li.Checker.li_join_kvars

(** Dead stores, via the liveness instance of the dataflow framework: a
    whole-local assignment to a user variable that nothing ever reads
    afterwards. Temporaries are exempt (the lowering manufactures and
    immediately consumes them), as are projections (writes through a
    reference or into a field have aliased readers). *)
let dead_store (fd : Ast.fn_def) (body : Ir.body) : diag list =
  let live = Liveness.compute body in
  let n = Array.length body.Ir.mb_blocks in
  let out = ref [] in
  for bb = 0 to n - 1 do
    List.iter
      (fun (s, _before, after) ->
        match s with
        | Ir.SAssign (dest, _, sp)
          when dest.Ir.projs = []
               && body.Ir.mb_locals.(dest.Ir.base).Ir.ld_kind = Ir.KUser
               && not after.(dest.Ir.base) -> (
            match real_span sp with
            | None -> ()
            | Some sp ->
                out :=
                  {
                    d_pass = "dead-store";
                    d_severity = Warning;
                    d_fn = fd.Ast.fn_name;
                    d_span = sp;
                    d_msg =
                      Printf.sprintf
                        "value assigned to `%s` is never read"
                        body.Ir.mb_locals.(dest.Ir.base).Ir.ld_name;
                  }
                  :: !out)
        | _ -> ())
      (Liveness.stmt_liveness live ~block:bb)
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation passes                                      *)
(* ------------------------------------------------------------------ *)

(* The next two passes read the interval/congruence/difference-bound
   states of {!Flux_absint.Absint} instead of asking the solver: the
   abstract semantics treats faulting operations as filters (only
   surviving executions flow on), so a fact that holds of the state
   {e before} a fault site is a theorem about every execution reaching
   it — the same definite polarity the solver-backed passes promise,
   at zero queries. *)

(** Definite division by zero: the divisor's abstract value at the
    division is the constant 0, so every execution reaching the
    operation faults. *)
let div_by_zero (fd : Ast.fn_def) (a : Absint.analysis) : diag list =
  let out = ref [] in
  Absint.iter_stmts a (fun ~block:_ s st ->
      match (s, st) with
      | _, Absint.Bot -> ()
      | Ir.SAssign (_, Ir.RBin (((Ast.Div | Ast.Rem) as op), _, divisor), sp), _
        -> (
          match
            (Dom.is_const (Absint.state_eval_operand a st divisor), real_span sp)
          with
          | Some 0, Some sp ->
              out :=
                {
                  d_pass = "div-by-zero";
                  d_severity = Warning;
                  d_fn = fd.Ast.fn_name;
                  d_span = sp;
                  d_msg =
                    Printf.sprintf
                      "division by zero: the divisor of this `%s` is 0 on \
                       every execution reaching it"
                      (if op = Ast.Div then "/" else "%");
                }
                :: !out
          | _ -> ())
      | _ -> ());
  List.rev !out

(** Definite out-of-bounds vector access: at an [RVec::get]/[get_mut]/
    [swap] call, the index is provably negative, or provably at least
    the receiver's length (by interval comparison or by a
    difference-bound between the index local and the vector's length). *)
let index_bounds (fd : Ast.fn_def) (body : Ir.body) (a : Absint.analysis) :
    diag list =
  let oob st recv_local (idx : Ir.operand) : bool =
    let di = Absint.state_eval_operand a st idx in
    Dom.always_lt di (Dom.const 0)
    ||
    match recv_local with
    | None -> false
    | Some v -> (
        Dom.always_le (Absint.local_value a st v) di
        ||
        match (idx, st) with
        | (Ir.Copy p | Ir.Move p), Absint.St _ when p.Ir.projs = [] -> (
            (* len(v) - i <= 0 as a tracked difference bound *)
            match Absint.state_diff_ub st v p.Ir.base with
            | Some c -> c <= 0
            | None -> false)
        | _ -> false)
  in
  let out = ref [] in
  Array.iteri
    (fun bb blk ->
      match blk.Ir.term with
      | Ir.TCall { tc_func; tc_args; tc_span; _ } -> (
          match Absint.vec_method tc_func with
          | Some (("get" | "get_mut" | "swap") as m) -> (
              match Absint.before_term a bb with
              | Absint.Bot -> ()
              | st ->
                  let recv = Absint.state_recv_target st tc_args in
                  let indices =
                    match (m, tc_args) with
                    | "swap", [ _; i; j ] -> [ i; j ]
                    | _, [ _; i ] -> [ i ]
                    | _ -> []
                  in
                  if List.exists (oob st recv) indices then
                    match real_span tc_span with
                    | Some sp ->
                        out :=
                          {
                            d_pass = "index-bounds";
                            d_severity = Warning;
                            d_fn = fd.Ast.fn_name;
                            d_span = sp;
                            d_msg =
                              Printf.sprintf
                                "index out of bounds: this `%s` is outside \
                                 the vector's length on every execution \
                                 reaching it"
                                m;
                          }
                          :: !out
                    | None -> ())
          | _ -> ())
      | _ -> ())
    body.Ir.mb_blocks;
  List.rev !out

(** Overflow candidates: the i32 range side conditions the checker
    recorded, evaluated against the κ solution it inferred. A finding
    means the context — refinements, path conditions, invariants — does
    not bound the result within [-2^31, 2^31); it is [Info] severity
    because unbounded-by-design arithmetic (plain accumulators) is
    common and correct. [Solve.check_clause] consults the abstract
    interval/difference-bound environment first and only falls back to
    the solver on clauses the environment cannot settle, so the sharper
    ranges inferred by the absint layer discharge most side conditions
    with no SMT at all. *)
let overflow ?config (fd : Ast.fn_def) (li : Checker.lint_info)
    (sol : Solve.solution option) : diag list =
  match sol with
  | None -> []
  | Some sol ->
      List.filter_map
        (fun (sp, msg, clause) ->
          if Solve.check_clause ?config ~kvars:li.Checker.li_kvars sol clause
          then None
          else
            Option.map
              (fun sp ->
                {
                  d_pass = "overflow";
                  d_severity = Info;
                  d_fn = fd.Ast.fn_name;
                  d_span = sp;
                  d_msg = msg;
                })
              (real_span sp))
        li.Checker.li_overflow

(* ------------------------------------------------------------------ *)
(* Per-function driver                                                 *)
(* ------------------------------------------------------------------ *)

let span_order (a : diag) (b : diag) =
  compare
    (a.d_span.Ast.sp_start.Ast.line, a.d_span.Ast.sp_start.Ast.col, a.d_pass)
    (b.d_span.Ast.sp_start.Ast.line, b.d_span.Ast.sp_start.Ast.col, b.d_pass)

(** Verify one function with the lint side channel on and run the
    enabled [passes] over the recorded facts. The verification report
    rides along so the caller can distinguish lint findings from
    refinement errors. Verification and the overflow side conditions
    run under [config] (default {!Flux_smt.Config.default}). *)
let run_function ?config ~(passes : string list) (genv : Flux_check.Genv.t)
    (fd : Ast.fn_def) (body : Ir.body) : Checker.fn_report * diag list =
  let fr, li = Checker.check_body_lint ?config genv fd body in
  let on p = List.mem p passes in
  (* one abstract fixpoint serves both absint-backed passes *)
  let absint =
    if on "div-by-zero" || on "index-bounds" then Some (Absint.analyze body)
    else None
  in
  let diags =
    (if on "vacuity" then vacuity fd li else [])
    @ (if on "unreachable" then unreachable fd body li else [])
    @ (if on "trivial-refinement" then
         trivial_refinement fd body li fr.Checker.fr_solution
       else [])
    @ (if on "dead-store" then dead_store fd body else [])
    @ (match absint with
      | Some a ->
          (if on "div-by-zero" then div_by_zero fd a else [])
          @ if on "index-bounds" then index_bounds fd body a else []
      | None -> [])
    @
    if on "overflow" then overflow ?config fd li fr.Checker.fr_solution
    else []
  in
  (fr, List.stable_sort span_order diags)
