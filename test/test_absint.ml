(** Tests for [lib/absint]: algebraic properties of the
    interval×congruence domain (γ-soundness of every transfer function
    against the truncated concrete semantics, lattice laws for
    join/meet/widen/narrow), back-edge and widening-point detection in
    the dataflow framework, difference-bound entailment, a
    widening/narrowing precision check on a counting loop, and the
    discharge layer's byte-identity promise ([--absint] vs
    [--no-absint] on a Table-1 workload, with crosscheck clean). *)

module Dom = Flux_absint.Dom
module Env = Flux_absint.Env
module Absint = Flux_absint.Absint
module Discharge = Flux_absint.Discharge
module Ir = Flux_mir.Ir
module Dataflow = Flux_mir.Dataflow
module Ast = Flux_syntax.Ast
module Checker = Flux_check.Checker
module Workloads = Flux_workloads.Workloads
open Flux_smt

(* ------------------------------------------------------------------ *)
(* Domain algebra (randomized)                                         *)
(* ------------------------------------------------------------------ *)

(** Random abstract values through the normalizing constructor: raw
    (lo, hi, m, r) tuples, including empty/contradictory ones (which
    reduce to ⊥) and unbounded sides. *)
let gen_dom : Dom.t QCheck.Gen.t =
  let open QCheck.Gen in
  let bound = oneof [ return None; map (fun n -> Some n) (int_range (-8) 8) ] in
  let* lo = bound in
  let* hi = bound in
  let* m = int_range 0 5 in
  let* r = int_range (-4) 5 in
  return (Dom.make ~lo ~hi ~m ~r)

let gen_pair = QCheck.Gen.pair gen_dom gen_dom

(* concrete sample points; wide enough to stick out of every generated
   bound *)
let points = List.init 25 (fun i -> i - 12)

let mem_pairs a b f =
  List.for_all
    (fun x ->
      List.for_all
        (fun y -> if Dom.mem x a && Dom.mem y b then f x y else true)
        points)
    points

let prop_gamma_arith =
  QCheck.Test.make ~name:"transfer functions are γ-sound (+, -, *, /, %)"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      mem_pairs a b (fun x y ->
          Dom.mem (x + y) (Dom.add a b)
          && Dom.mem (x - y) (Dom.sub a b)
          && Dom.mem (x * y) (Dom.mul a b)
          && (y = 0
             || (* OCaml / and mod are the paper's truncated semantics *)
             Dom.mem (x / y) (Dom.div a b) && Dom.mem (x mod y) (Dom.md a b))))

let prop_join_meet =
  QCheck.Test.make ~name:"join is an upper bound, meet is exact" ~count:500
    (QCheck.make gen_pair) (fun (a, b) ->
      List.for_all
        (fun x ->
          (* γ(a) ∪ γ(b) ⊆ γ(a ⊔ b) *)
          ((not (Dom.mem x a || Dom.mem x b)) || Dom.mem x (Dom.join a b))
          (* γ(a ⊓ b) = γ(a) ∩ γ(b) on sampled points *)
          && Dom.mem x (Dom.meet a b) = (Dom.mem x a && Dom.mem x b))
        points)

let prop_widen_narrow =
  QCheck.Test.make ~name:"widen over-approximates join; narrow keeps meets"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      List.for_all
        (fun x ->
          ((not (Dom.mem x a || Dom.mem x b)) || Dom.mem x (Dom.widen a b))
          && ((not (Dom.mem x a && Dom.mem x b)) || Dom.mem x (Dom.narrow a b)))
        points)

let prop_leq_monotone =
  QCheck.Test.make ~name:"leq agrees with γ-inclusion; join/widen dominate"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      Dom.leq a (Dom.join a b)
      && Dom.leq b (Dom.join a b)
      && Dom.leq (Dom.join a b) (Dom.widen a b)
      && Dom.leq (Dom.meet a b) a
      && ((not (Dom.leq a b)) || List.for_all (fun x -> (not (Dom.mem x a)) || Dom.mem x b) points))

(* ------------------------------------------------------------------ *)
(* Back edges and widening points                                      *)
(* ------------------------------------------------------------------ *)

let lower_fn src name : Ir.body =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  match List.assoc_opt name (Flux_mir.Lower.lower_program prog) with
  | Some body -> body
  | None -> Alcotest.fail ("no body for " ^ name)

let loop_src =
  {|
#[lr::sig(fn() -> i32)]
fn count() -> i32 {
    let mut i = 0;
    while i < 10 {
        i = i + 1;
    }
    return i;
}
|}

let straight_src =
  {|
#[lr::sig(fn(i32) -> i32)]
fn id(n: i32) -> i32 {
    let x = n;
    return x;
}
|}

let back_edges_loop () =
  let body = lower_fn loop_src "count" in
  let edges = Dataflow.back_edges body in
  Alcotest.(check int) "one back edge for one loop" 1 (List.length edges);
  let src, dst = List.hd edges in
  Alcotest.(check bool) "back edge runs backwards in the DFS" true (dst <= src);
  let wp = Dataflow.widening_points body in
  Alcotest.(check bool) "its target is the widening point" true wp.(dst);
  Alcotest.(check int) "exactly one widening point" 1
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 wp)

let back_edges_straight () =
  let body = lower_fn straight_src "id" in
  Alcotest.(check int) "no back edges in straight-line code" 0
    (List.length (Dataflow.back_edges body));
  Alcotest.(check bool) "no widening points either" true
    (Array.for_all not (Dataflow.widening_points body))

(* ------------------------------------------------------------------ *)
(* Widening/narrowing precision on the counting loop                   *)
(* ------------------------------------------------------------------ *)

let counting_loop_exact () =
  let body = lower_fn loop_src "count" in
  let a = Absint.analyze body in
  let i_local =
    let found = ref (-1) in
    Array.iteri
      (fun l (ld : Ir.local_decl) -> if ld.Ir.ld_name = "i" then found := l)
      body.Ir.mb_locals;
    !found
  in
  Alcotest.(check bool) "local i found" true (i_local >= 0);
  (* the block that returns sees the narrowed post-loop state: the
     widened +∞ bound must have been refined back to exactly 10 *)
  (* lowering also emits an unreachable trailing return block (its
     abstract state is ⊥); the reachable one comes first *)
  let return_block =
    let found = ref (-1) in
    Array.iteri
      (fun bb blk ->
        if blk.Ir.term = Ir.TReturn && !found < 0 then found := bb)
      body.Ir.mb_blocks;
    !found
  in
  let st = Absint.before_term a return_block in
  Alcotest.(check (option int))
    "i is exactly 10 after the loop" (Some 10)
    (Dom.is_const (Absint.local_value a st i_local))

(* ------------------------------------------------------------------ *)
(* Difference-bound entailment                                         *)
(* ------------------------------------------------------------------ *)

let x = Term.var ~sort:Sort.Int "x"
let y = Term.var ~sort:Sort.Int "y"
let z = Term.var ~sort:Sort.Int "z"

let env_entailment () =
  let e =
    Env.of_hyps
      [ Term.ge x (Term.int 0); Term.mk_eq y (Term.add x (Term.int 1)) ]
  in
  Alcotest.(check bool) "x >= 0, y = x+1 |= y >= 1" true
    (Env.entails e (Term.ge y (Term.int 1)));
  Alcotest.(check bool) "y > x follows" true (Env.entails e (Term.gt y x));
  Alcotest.(check bool) "y >= 2 must NOT be entailed" false
    (Env.entails e (Term.ge y (Term.int 2)));
  let chain =
    Env.of_hyps [ Term.lt x y; Term.lt y z ]
  in
  Alcotest.(check bool) "strict chain: x+2 <= z" true
    (Env.entails chain (Term.le (Term.add x (Term.int 2)) z));
  Alcotest.(check bool) "x+3 <= z must NOT be entailed" false
    (Env.entails chain (Term.le (Term.add x (Term.int 3)) z));
  (* contradictory hypotheses entail anything *)
  let contra = Env.of_hyps [ Term.lt x y; Term.lt y x ] in
  Alcotest.(check bool) "inconsistent env entails everything" true
    (Env.entails contra (Term.ge x (Term.int 1000)))

(** Every entailment the environment claims on random solver terms must
    be confirmed by the solver — the exact invariant [Discharge.valid]
    rests on (a tighter, directed version of the fuzz oracle). *)
let prop_discharge_sound =
  QCheck.Test.make ~name:"env entailment implies solver validity" ~count:300
    (QCheck.make Test_smt.gen_term) (fun t ->
      if Discharge.try_valid Config.default t then Solver.valid t
      else true)

(* ------------------------------------------------------------------ *)
(* Byte-identity: --absint vs --no-absint                              *)
(* ------------------------------------------------------------------ *)

let render (r : Checker.report) : string =
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
           | Some sol ->
               Format.asprintf "%a" Flux_fixpoint.Solve.pp_solution sol))
       r.Checker.rp_fns)

let run_rendered ~absint ~crosscheck src =
  render
    (Checker.check_source
       ~config:
         { Config.default with absint; absint_crosscheck = crosscheck }
       src)

let discharge_byte_identity () =
  let b = Option.get (Workloads.find "bsearch") in
  let src = b.Workloads.bm_flux in
  let off = run_rendered ~absint:false ~crosscheck:false src in
  let on = run_rendered ~absint:true ~crosscheck:false src in
  Alcotest.(check string) "verdicts byte-identical with discharge on" off on;
  Flux_smt.Profile.reset ();
  let xc = run_rendered ~absint:true ~crosscheck:true src in
  Alcotest.(check string) "crosscheck mode changes nothing" off xc;
  let fails =
    match
      List.assoc_opt "absint.crosscheck_fail" (Flux_smt.Profile.snapshot ())
    with
    | Some (n, _, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "zero crosscheck disagreements" 0 fails;
  let discharged =
    match List.assoc_opt "absint.discharged" (Flux_smt.Profile.snapshot ()) with
    | Some (n, _, _) -> n
    | None -> 0
  in
  Alcotest.(check bool) "some clauses were discharged" true (discharged > 0)

(* ------------------------------------------------------------------ *)

let qcheck_seed = 0xab51

let tests =
  ( "absint",
    [
      Alcotest.test_case "loop back edge and widening point found" `Quick
        back_edges_loop;
      Alcotest.test_case "straight-line code has no widening points" `Quick
        back_edges_straight;
      Alcotest.test_case "counting loop narrows to an exact constant" `Quick
        counting_loop_exact;
      Alcotest.test_case "difference-bound entailment units" `Quick
        env_entailment;
      Alcotest.test_case "discharge byte-identity on bsearch" `Slow
        discharge_byte_identity;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| qcheck_seed |]))
        [
          prop_gamma_arith;
          prop_join_meet;
          prop_widen_narrow;
          prop_leq_monotone;
          prop_discharge_sound;
        ] )
