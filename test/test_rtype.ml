(** Tests for refinement types: spec conversion, templates, subtyping
    constraint generation and unpacking. *)

open Flux_smt
open Flux_fixpoint
open Flux_rtype
module Ast = Flux_syntax.Ast
module Parser = Flux_syntax.Parser

let senv : Rty.struct_env = Hashtbl.create 4

let () =
  Hashtbl.replace senv "RMat"
    {
      Rty.si_name = "RMat";
      si_params = [ ("m", Sort.Int); ("n", Sort.Int) ];
      si_fields = [];
      si_invariant = Some Term.(mk_and [ lt (int 0) (var "m"); lt (int 0) (var "n") ]);
    }

let conv src =
  let cx = Specconv.make_cx senv in
  let t = Specconv.conv_rty cx (Parser.parse_rtype src) in
  (t, cx.Specconv.params)

let test_conv_indexed () =
  let t, params = conv "usize<@n>" in
  Alcotest.(check int) "one param" 1 (List.length params);
  match t with
  | Rty.TBase (Rty.BInt Ast.Usize, Rty.Ix [ Term.Var ("n", Sort.Int) ]) -> ()
  | _ -> Alcotest.failf "unexpected %s" (Rty.to_string t)

let test_conv_existential () =
  let t, _ = conv "i32{v: 0 < v}" in
  match t with
  | Rty.TBase (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc _ ])) -> ()
  | _ -> Alcotest.failf "unexpected %s" (Rty.to_string t)

let test_conv_nested_vec () =
  (* an index expression may only mention binders already declared *)
  (match conv "RVec<RVec<f32, n>, @k>" with
  | exception Specconv.Spec_error _ -> ()
  | _ -> Alcotest.fail "unbound n should be rejected");
  (* with the binder declared first it converts *)
  let cx = Specconv.make_cx senv in
  let _ = Specconv.conv_rty cx (Parser.parse_rtype "usize<@n>") in
  match Specconv.conv_rty cx (Parser.parse_rtype "RVec<RVec<f32, n>, @k>") with
  | Rty.TBase (Rty.BVec (Rty.TBase (Rty.BVec _, _)), Rty.Ix _) -> ()
  | t -> Alcotest.failf "unexpected %s" (Rty.to_string t)

let test_conv_struct () =
  let t, _ = conv "RMat<3, 4>" in
  match t with
  | Rty.TBase (Rty.BStruct "RMat", Rty.Ix [ Term.Int 3; Term.Int 4 ]) -> ()
  | _ -> Alcotest.failf "unexpected %s" (Rty.to_string t)

let test_sig_resolution () =
  let src =
    "#[lr::sig(fn(usize<@n>, &mut RVec<f32, n>) -> RVec<f32, n+1> requires 0 < n)]\n\
     fn f(n: usize, v: &mut RVec<f32>) -> RVec<f32> { v.clone() }"
  in
  let prog = Parser.parse_program src in
  let fd = Option.get (Ast.find_fn prog "f") in
  let fsig = Specconv.resolve_sig senv fd in
  Alcotest.(check int) "params" 1 (List.length fsig.Specconv.fsg_params);
  Alcotest.(check int) "args" 2 (List.length fsig.Specconv.fsg_args);
  Alcotest.(check int) "requires" 1 (List.length fsig.Specconv.fsg_requires)

let test_sig_arity_mismatch () =
  let src = "#[lr::sig(fn(i32) -> i32)]\nfn f(x: i32, y: i32) -> i32 { x }" in
  let prog = Parser.parse_program src in
  let fd = Option.get (Ast.find_fn prog "f") in
  match Specconv.resolve_sig senv fd with
  | exception Specconv.Spec_error _ -> ()
  | _ -> Alcotest.fail "expected a spec error"

let test_binder_sort_clash () =
  let src = "#[lr::sig(fn(i32<@n>, bool<@n>) -> i32)]\nfn f(x: i32, b: bool) -> i32 { x }" in
  let prog = Parser.parse_program src in
  let fd = Option.get (Ast.find_fn prog "f") in
  match Specconv.resolve_sig senv fd with
  | exception Specconv.Spec_error _ -> ()
  | _ -> Alcotest.fail "expected a sort clash error"

(* ------------------------------------------------------------------ *)
(* Subtyping                                                           *)
(* ------------------------------------------------------------------ *)

let solve_clauses clauses kvars =
  match Solve.solve_clauses_incremental ~kvars clauses with
  | Solve.Sat _ -> true
  | Solve.Unsat _ -> false

let int_ix t = Rty.TBase (Rty.BInt Ast.I32, Rty.Ix [ t ])

let test_sub_index_equal () =
  let cls =
    Sub.sub senv Sub.empty_cx ~tag:0 (int_ix (Term.int 3)) (int_ix (Term.int 3))
  in
  Alcotest.(check bool) "trivial" true (solve_clauses cls [])

let test_sub_index_unequal () =
  let cls =
    Sub.sub senv Sub.empty_cx ~tag:0 (int_ix (Term.int 3)) (int_ix (Term.int 4))
  in
  Alcotest.(check bool) "3 is not 4" false (solve_clauses cls [])

let test_sub_exists_right () =
  (* i32<5> ≼ {v. i32<v> | 0 < v} *)
  let rhs =
    Rty.TBase
      ( Rty.BInt Ast.I32,
        Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc Term.(lt (int 0) (var "v")) ])
      )
  in
  let ok = Sub.sub senv Sub.empty_cx ~tag:0 (int_ix (Term.int 5)) rhs in
  Alcotest.(check bool) "5 is positive" true (solve_clauses ok []);
  let bad = Sub.sub senv Sub.empty_cx ~tag:0 (int_ix (Term.int 0)) rhs in
  Alcotest.(check bool) "0 is not" false (solve_clauses bad [])

let test_sub_exists_left () =
  (* {v. i32<v> | 2 < v} ≼ {v. i32<v> | 0 < v} *)
  let mk p =
    Rty.TBase
      (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc p ]))
  in
  let cls =
    Sub.sub senv Sub.empty_cx ~tag:0
      (mk Term.(lt (int 2) (var "v")))
      (mk Term.(lt (int 0) (var "v")))
  in
  Alcotest.(check bool) "weakening ok" true (solve_clauses cls []);
  let cls_bad =
    Sub.sub senv Sub.empty_cx ~tag:0
      (mk Term.(lt (int 0) (var "v")))
      (mk Term.(lt (int 2) (var "v")))
  in
  Alcotest.(check bool) "strengthening fails" false (solve_clauses cls_bad [])

let test_sub_vec_covariant () =
  let vec elem len = Rty.TBase (Rty.BVec elem, Rty.Ix [ len ]) in
  let pos =
    Rty.TBase
      (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc Term.(lt (int 0) (var "v")) ]))
  in
  let nonneg =
    Rty.TBase
      (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc Term.(le (int 0) (var "v")) ]))
  in
  let n = Term.var "n" in
  let cls =
    Sub.sub senv
      { Sub.binders = [ ("n", Sort.Int) ]; hyps = [] }
      ~tag:0 (vec pos n) (vec nonneg n)
  in
  Alcotest.(check bool) "covariant elements" true (solve_clauses cls [])

let test_sub_mut_ref_invariant () =
  let pos =
    Rty.TBase
      (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc Term.(lt (int 0) (var "v")) ]))
  in
  let nonneg =
    Rty.TBase
      (Rty.BInt Ast.I32, Rty.Ex ([ ("v", Sort.Int) ], [ Horn.Conc Term.(le (int 0) (var "v")) ]))
  in
  (* &mut pos ≼ &mut nonneg must FAIL (needs both directions) *)
  let cls =
    Sub.sub senv Sub.empty_cx ~tag:0 (Rty.TRef (Rty.Mut, pos))
      (Rty.TRef (Rty.Mut, nonneg))
  in
  Alcotest.(check bool) "mutable refs are invariant" false (solve_clauses cls []);
  (* but &mut τ ≼ &τ' covariantly *)
  let cls2 =
    Sub.sub senv Sub.empty_cx ~tag:0 (Rty.TRef (Rty.Mut, pos))
      (Rty.TRef (Rty.Shr, nonneg))
  in
  Alcotest.(check bool) "&mut coerces to &" true (solve_clauses cls2 [])

let test_sub_shape_mismatch () =
  match
    Sub.sub senv Sub.empty_cx ~tag:0 (int_ix (Term.int 1))
      (Rty.TBase (Rty.BBool, Rty.Ix [ Term.tt ]))
  with
  | exception Rty.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a shape error"

let test_template_kvars () =
  let kvars = ref [] in
  let t =
    Rty.template senv
      ~declare:(fun kv -> kvars := kv :: !kvars)
      ~scope:[ ("n", Sort.Int) ]
      (Ast.TVec (Ast.TVec Ast.TFloat))
  in
  (* one κ for the outer length, one for the element lengths *)
  Alcotest.(check int) "two kvars" 2 (List.length !kvars);
  match t with
  | Rty.TBase (Rty.BVec (Rty.TBase (Rty.BVec _, Rty.Ex (_, [ Horn.Kapp (_, args) ]))), Rty.Ex _)
    ->
      (* the element κ sees the outer binder and the scope *)
      Alcotest.(check bool) "element kvar has scope" true (List.length args >= 3)
  | _ -> Alcotest.failf "unexpected template %s" (Rty.to_string t)

let test_usize_invariant () =
  (* unpacking usize<v> must yield 0 <= v *)
  let bs, hyps, _, ts =
    Sub.unpack senv (Rty.BInt Ast.Usize) [ ("v", Sort.Int) ] []
  in
  Alcotest.(check int) "one binder" 1 (List.length bs);
  Alcotest.(check int) "one index" 1 (List.length ts);
  let has_nonneg =
    List.exists
      (function
        | Horn.Conc (Term.Cmp (Term.Ge, _, Term.Int 0)) -> true
        | _ -> false)
      hyps
  in
  Alcotest.(check bool) "usize invariant" true has_nonneg

let test_struct_invariant_unpack () =
  let bs, hyps, _, _ =
    Sub.unpack senv (Rty.BStruct "RMat")
      [ ("m", Sort.Int); ("n", Sort.Int) ]
      []
  in
  Alcotest.(check int) "two binders" 2 (List.length bs);
  Alcotest.(check bool) "invariant assumed" true (List.length hyps >= 1)

let tests =
  ( "rtype",
    [
      Alcotest.test_case "conv indexed" `Quick test_conv_indexed;
      Alcotest.test_case "conv existential" `Quick test_conv_existential;
      Alcotest.test_case "conv nested vec" `Quick test_conv_nested_vec;
      Alcotest.test_case "conv struct" `Quick test_conv_struct;
      Alcotest.test_case "sig resolution" `Quick test_sig_resolution;
      Alcotest.test_case "sig arity mismatch" `Quick test_sig_arity_mismatch;
      Alcotest.test_case "binder sort clash" `Quick test_binder_sort_clash;
      Alcotest.test_case "sub: equal indices" `Quick test_sub_index_equal;
      Alcotest.test_case "sub: unequal indices" `Quick test_sub_index_unequal;
      Alcotest.test_case "sub: exists right" `Quick test_sub_exists_right;
      Alcotest.test_case "sub: exists left" `Quick test_sub_exists_left;
      Alcotest.test_case "sub: vec covariance" `Quick test_sub_vec_covariant;
      Alcotest.test_case "sub: &mut invariance" `Quick test_sub_mut_ref_invariant;
      Alcotest.test_case "sub: shape mismatch" `Quick test_sub_shape_mismatch;
      Alcotest.test_case "templates" `Quick test_template_kvars;
      Alcotest.test_case "usize invariant" `Quick test_usize_invariant;
      Alcotest.test_case "struct invariant" `Quick test_struct_invariant_unpack;
    ] )
