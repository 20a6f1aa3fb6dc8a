(** Tests for MIR lowering: CFG structure, desugaring of method calls
    and short-circuit operators, and the liveness analysis. *)

open Flux_syntax
module Ir = Flux_mir.Ir
module Lower = Flux_mir.Lower
module Liveness = Flux_mir.Liveness

let lower_fn src name =
  let prog = Parser.parse_program src in
  Typeck.check_program prog;
  match List.assoc_opt name (Lower.lower_program prog) with
  | Some b -> b
  | None -> Alcotest.failf "no body for %s" name

let count_calls (b : Ir.body) pred =
  Array.fold_left
    (fun acc blk ->
      match blk.Ir.term with
      | Ir.TCall { tc_func; _ } when pred tc_func -> acc + 1
      | _ -> acc)
    0 b.Ir.mb_blocks

let test_loop_shape () =
  let b =
    lower_fn "fn f(n: usize) { let mut i = 0; while i < n { i += 1; } }" "f"
  in
  let heads =
    Array.to_list b.Ir.mb_loop_heads |> List.filter (fun x -> x) |> List.length
  in
  Alcotest.(check int) "one loop head" 1 heads

let test_method_desugar () =
  let b =
    lower_fn
      "fn f() -> usize { let mut v: RVec<i32> = RVec::new(); v.push(1); v.len() }"
      "f"
  in
  Alcotest.(check int) "push call" 1 (count_calls b (String.equal "RVec::push"));
  Alcotest.(check int) "len call" 1 (count_calls b (String.equal "RVec::len"));
  Alcotest.(check int) "new call" 1 (count_calls b (String.equal "RVec::new"));
  (* the push receiver must be a mutable borrow temp *)
  let has_mut_borrow =
    Array.exists
      (fun blk ->
        List.exists
          (function
            | Ir.SAssign (_, Ir.RRef (Ast.Mut, _), _) -> true
            | _ -> false)
          blk.Ir.stmts)
      b.Ir.mb_blocks
  in
  Alcotest.(check bool) "mutable borrow temp" true has_mut_borrow

let test_short_circuit () =
  (* i < v.len() && *v.get(i) > 0 must not evaluate get before the
     length check: the get call must be dominated by the comparison *)
  let b =
    lower_fn
      "fn f(v: &RVec<i32>, i: usize) -> bool { i < v.len() && 0 < *v.get(i) }"
      "f"
  in
  (* there must be at least two switches (one per conjunct path) *)
  let switches =
    Array.fold_left
      (fun acc blk ->
        match blk.Ir.term with Ir.TSwitch _ -> acc + 1 | _ -> acc)
      0 b.Ir.mb_blocks
  in
  Alcotest.(check bool) "branching for &&" true (switches >= 2)

let test_early_return () =
  let b = lower_fn "fn f(x: i32) -> i32 { if x < 0 { return 0; } x }" "f" in
  let returns =
    Array.fold_left
      (fun acc blk ->
        match blk.Ir.term with Ir.TReturn -> acc + 1 | _ -> acc)
      0 b.Ir.mb_blocks
  in
  Alcotest.(check bool) "two returns" true (returns >= 2)

let test_invariant_in_header () =
  let b =
    lower_fn
      "fn f(n: usize) { let mut i = 0; while i < n { body_invariant!(i <= n); i += 1; } }"
      "f"
  in
  let found = ref false in
  Array.iteri
    (fun bb blk ->
      if b.Ir.mb_loop_heads.(bb) then
        List.iter
          (function Ir.SInvariant _ -> found := true | _ -> ())
          blk.Ir.stmts)
    b.Ir.mb_blocks;
  Alcotest.(check bool) "invariant hoisted to header" true !found

let test_autoderef_receiver () =
  (* calling a method on a &mut parameter reborrows *x *)
  let b = lower_fn "fn f(v: &mut RVec<f32>) -> usize { v.len() }" "f" in
  let reborrows =
    Array.exists
      (fun blk ->
        List.exists
          (function
            | Ir.SAssign (_, Ir.RRef (_, p), _) -> p.Ir.projs = [ Ir.PDeref ]
            | _ -> false)
          blk.Ir.stmts)
      b.Ir.mb_blocks
  in
  Alcotest.(check bool) "reborrow through deref" true reborrows

let test_liveness () =
  let b =
    lower_fn
      "fn f(n: usize) -> usize {\n\
      \  let mut acc = 0;\n\
      \  let dead = 17;\n\
      \  let mut i = 0;\n\
      \  while i < n { acc += 1; i += 1; }\n\
      \  acc\n\
       }"
      "f"
  in
  let live = Liveness.compute b in
  (* find the loop head and the locals by name *)
  let local_of name =
    let r = ref (-1) in
    Array.iteri (fun i d -> if d.Ir.ld_name = name then r := i) b.Ir.mb_locals;
    !r
  in
  let head = ref (-1) in
  Array.iteri (fun i h -> if h then head := i) b.Ir.mb_loop_heads;
  let at_head = Liveness.live_at live ~block:!head in
  Alcotest.(check bool) "acc live at loop" true at_head.(local_of "acc");
  Alcotest.(check bool) "i live at loop" true at_head.(local_of "i");
  Alcotest.(check bool) "dead not live" false at_head.(local_of "dead")

let test_rpo () =
  let b =
    lower_fn "fn f(n: usize) { let mut i = 0; while i < n { i += 1; } }" "f"
  in
  let rpo = Ir.reverse_postorder b in
  Alcotest.(check int) "covers all blocks" (Array.length b.Ir.mb_blocks)
    (List.length rpo);
  Alcotest.(check int) "starts at entry" 0 (List.hd rpo)

let test_place_ty () =
  let src =
    "struct P { v: RVec<f32> }\nfn f(p: &mut P) -> usize { p.v.len() }"
  in
  let prog = Parser.parse_program src in
  Typeck.check_program prog;
  let b = List.assoc "f" (Lower.lower_program prog) in
  let ty =
    Ir.place_ty prog b { Ir.base = 1; Ir.projs = [ Ir.PDeref; Ir.PField "v" ] }
  in
  Alcotest.(check bool) "field type" true (Ast.ty_equal ty (Ast.TVec Ast.TFloat))

let test_dominators () =
  let b =
    lower_fn
      "fn f(n: usize) {\n\
      \  let mut i = 0;\n\
      \  while i < n {\n\
      \    let mut j = 0;\n\
      \    while j < n { j += 1; }\n\
      \    i += 1;\n\
      \  }\n\
       }"
      "f"
  in
  let dom = Ir.dominators b in
  (* the entry dominates everything *)
  Array.iteri
    (fun i di ->
      ignore i;
      Alcotest.(check bool) "entry dominates" true di.(0))
    dom;
  (* every loop head dominates its back-edge sources *)
  let preds = Ir.predecessors b in
  Array.iteri
    (fun h is_head ->
      if is_head then
        let back = List.filter (fun p -> dom.(p).(h)) preds.(h) in
        Alcotest.(check bool) "has a dominated back edge" true (back <> []))
    b.Ir.mb_loop_heads

(* ------------------------------------------------------------------ *)
(* The printer against its Format reference                            *)
(* ------------------------------------------------------------------ *)

(* The Format printer that [Ir.body_to_string] replaced, kept verbatim
   (with the Format type printer it called). Its bytes are cache-key
   material, so the two must agree on every body. *)
module Ref = struct
  open Ir

  let rec pp_ty fmt = function
    | Ast.TInt k -> Format.pp_print_string fmt (Ast.int_kind_str k)
    | Ast.TFloat -> Format.pp_print_string fmt "f32"
    | Ast.TBool -> Format.pp_print_string fmt "bool"
    | Ast.TUnit -> Format.pp_print_string fmt "()"
    | Ast.TVec t -> Format.fprintf fmt "RVec<%a>" pp_ty t
    | Ast.TStruct s -> Format.pp_print_string fmt s
    | Ast.TRef (Ast.Imm, t) -> Format.fprintf fmt "&%a" pp_ty t
    | Ast.TRef (Ast.Mut, t) -> Format.fprintf fmt "&mut %a" pp_ty t
    | Ast.TParam x -> Format.pp_print_string fmt x
    | Ast.TInfer i -> Format.fprintf fmt "_%d" i

  let pp_place (b : body) fmt (p : place) =
    let base = b.mb_locals.(p.base).ld_name in
    let rec go fmt = function
      | [] -> Format.pp_print_string fmt base
      | PDeref :: rest -> Format.fprintf fmt "(*%a)" go rest
      | PField f :: rest -> Format.fprintf fmt "%a.%s" go rest f
    in
    go fmt (List.rev p.projs)

  let pp_constant fmt = function
    | CInt (n, k) -> Format.fprintf fmt "%d_%s" n (Ast.int_kind_str k)
    | CFloat f -> Format.fprintf fmt "%g" f
    | CBool b -> Format.pp_print_bool fmt b
    | CUnit -> Format.pp_print_string fmt "()"

  let pp_operand (b : body) fmt = function
    | Copy p -> Format.fprintf fmt "copy %a" (pp_place b) p
    | Move p -> Format.fprintf fmt "move %a" (pp_place b) p
    | Const c -> pp_constant fmt c

  let pp_rvalue (b : body) fmt = function
    | RUse op -> pp_operand b fmt op
    | RBin (op, a1, a2) ->
        Format.fprintf fmt "%a %s %a" (pp_operand b) a1 (Ast.binop_str op)
          (pp_operand b) a2
    | RUn (Ast.Not, a) -> Format.fprintf fmt "!%a" (pp_operand b) a
    | RUn (Ast.NegOp, a) -> Format.fprintf fmt "-%a" (pp_operand b) a
    | RRef (Ast.Imm, p) -> Format.fprintf fmt "&%a" (pp_place b) p
    | RRef (Ast.Mut, p) -> Format.fprintf fmt "&mut %a" (pp_place b) p
    | RAggregate (s, fields) ->
        Format.fprintf fmt "%s { %a }" s
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             (fun fmt (f, op) ->
               Format.fprintf fmt "%s: %a" f (pp_operand b) op))
          fields

  let pp_stmt (b : body) fmt = function
    | SAssign (p, rv, _) ->
        Format.fprintf fmt "%a = %a;" (pp_place b) p (pp_rvalue b) rv
    | SInvariant (e, _) -> Format.fprintf fmt "invariant(%a);" Ast.pp_expr e
    | SNop -> Format.pp_print_string fmt "nop;"

  let pp_terminator (b : body) fmt = function
    | TGoto i -> Format.fprintf fmt "goto bb%d;" i
    | TSwitch (op, t, f) ->
        Format.fprintf fmt "if %a -> [bb%d, bb%d];" (pp_operand b) op t f
    | TCall { tc_func; tc_args; tc_dest; tc_target; _ } ->
        Format.fprintf fmt "%a = %s(%a) -> bb%d;" (pp_place b) tc_dest tc_func
          (Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
             (pp_operand b))
          tc_args tc_target
    | TReturn -> Format.pp_print_string fmt "return;"
    | TUnreachable -> Format.pp_print_string fmt "unreachable;"

  let pp_body fmt (b : body) =
    Format.fprintf fmt "fn %s {@." b.mb_name;
    Array.iteri
      (fun i (d : local_decl) ->
        Format.fprintf fmt "  let %s: %a; // _%d %s@." d.ld_name pp_ty d.ld_ty
          i
          (match d.ld_kind with
          | KReturn -> "(return)"
          | KArg -> "(arg)"
          | KUser -> ""
          | KTemp -> "(temp)"))
      b.mb_locals;
    Array.iteri
      (fun i blk ->
        Format.fprintf fmt "  bb%d%s:@." i
          (if b.mb_loop_heads.(i) then " (loop head)" else "");
        List.iter (fun s -> Format.fprintf fmt "    %a@." (pp_stmt b) s) blk.stmts;
        Format.fprintf fmt "    %a@." (pp_terminator b) blk.term)
      b.mb_blocks;
    Format.fprintf fmt "}@."
end

let check_printer (b : Ir.body) =
  Alcotest.(check string)
    (b.Ir.mb_name ^ ": printer matches the Format reference")
    (Format.asprintf "%a" Ref.pp_body b)
    (Ir.body_to_string b)

module Workloads = Flux_workloads.Workloads
module Wl_extra = Flux_workloads.Wl_extra

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rs_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rs")
  |> List.sort String.compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

let test_printer_corpus () =
  let sources =
    List.concat_map
      (fun b -> [ b.Workloads.bm_flux; b.Workloads.bm_prusti ])
      Workloads.all
    @ [ Workloads.rmat_flux; Workloads.rmat_prusti ]
    @ List.map (fun e -> e.Wl_extra.ex_src) Wl_extra.all
    @ rs_files "../examples/programs"
    @ rs_files "../examples/lint"
  in
  let bodies =
    List.concat_map
      (fun src ->
        let prog = Parser.parse_program src in
        Typeck.check_program prog;
        List.map snd (Lower.lower_program prog))
      sources
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d bodies" (List.length bodies))
    true
    (List.length bodies > 50);
  List.iter check_printer bodies

(* Every constructor of the IR, hand-built: every local kind and type,
   projection, constant, operand, rvalue, statement and terminator, and
   an invariant whose expression opens boxes and overruns the margin. *)
let test_printer_constructors () =
  let local ld_name ld_ty ld_kind = { Ir.ld_name; ld_ty; ld_kind } in
  let p base projs = { Ir.base; projs } in
  let span = Ast.dummy_span in
  let inv =
    Parser.parse_expression
      "forall(|k: usize| (k < n ==> if k < 3 { old(xs).len() } else { \
       S { a: -k, b: !true } .a } <= some_rather_long_function_name(k, n, \
       2.5, ()) && *r == result))"
  in
  let b =
    {
      Ir.mb_name = "every_constructor";
      mb_locals =
        [|
          local "_0" Ast.TUnit Ir.KReturn;
          local "xs" (Ast.TRef (Ast.Mut, Ast.TVec (Ast.TInt Ast.Usize))) Ir.KArg;
          local "s" (Ast.TRef (Ast.Imm, Ast.TStruct "S")) Ir.KArg;
          local "x" Ast.TFloat Ir.KUser;
          local "t" (Ast.TParam "T") Ir.KTemp;
          local "u" (Ast.TInfer 7) Ir.KTemp;
          local "c" Ast.TBool Ir.KUser;
          local "n" (Ast.TInt Ast.I64) Ir.KUser;
        |];
      mb_arg_count = 2;
      mb_blocks =
        [|
          {
            Ir.stmts =
              [
                Ir.SAssign (p 3 [], Ir.RUse (Ir.Const (Ir.CFloat 0.1)), span);
                Ir.SAssign
                  ( p 7 [],
                    Ir.RBin
                      ( Ast.Add,
                        Ir.Const (Ir.CInt (-3, Ast.I64)),
                        Ir.Copy (p 2 [ Ir.PDeref; Ir.PField "a" ]) ),
                    span );
                Ir.SAssign (p 6 [], Ir.RUn (Ast.Not, Ir.Const (Ir.CBool true)), span);
                Ir.SAssign (p 7 [], Ir.RUn (Ast.NegOp, Ir.Move (p 7 [])), span);
                Ir.SAssign (p 4 [], Ir.RRef (Ast.Imm, p 2 [ Ir.PDeref ]), span);
                Ir.SAssign (p 5 [], Ir.RRef (Ast.Mut, p 1 [ Ir.PDeref ]), span);
                Ir.SAssign
                  ( p 4 [ Ir.PField "f"; Ir.PDeref; Ir.PField "g" ],
                    Ir.RAggregate
                      ( "S",
                        [ ("a", Ir.Const Ir.CUnit); ("b", Ir.Const (Ir.CFloat 1e20)) ]
                      ),
                    span );
                Ir.SAssign (p 4 [], Ir.RAggregate ("Empty", []), span);
                Ir.SNop;
              ];
            term = Ir.TGoto 1;
          };
          {
            Ir.stmts = [ Ir.SInvariant (inv, span) ];
            term = Ir.TSwitch (Ir.Copy (p 6 []), 2, 3);
          };
          {
            Ir.stmts = [];
            term =
              Ir.TCall
                {
                  tc_func = "RVec::push";
                  tc_args = [ Ir.Move (p 5 []); Ir.Const (Ir.CInt (0, Ast.Usize)) ];
                  tc_dest = p 0 [];
                  tc_target = 1;
                  tc_span = span;
                };
          };
          {
            Ir.stmts = [];
            term =
              Ir.TCall
                {
                  tc_func = "nullary";
                  tc_args = [];
                  tc_dest = p 0 [];
                  tc_target = 4;
                  tc_span = span;
                };
          };
          { Ir.stmts = []; term = Ir.TReturn };
          { Ir.stmts = []; term = Ir.TUnreachable };
        |];
      mb_loop_heads = [| false; true; false; false; false; false |];
      mb_span = span;
    }
  in
  check_printer b;
  Alcotest.(check string) "pp_body prints the same string"
    (Ir.body_to_string b) (Format.asprintf "%a" Ir.pp_body b)

let tests =
  ( "mir",
    [
      Alcotest.test_case "loop shape" `Quick test_loop_shape;
      Alcotest.test_case "method desugaring" `Quick test_method_desugar;
      Alcotest.test_case "short-circuit &&" `Quick test_short_circuit;
      Alcotest.test_case "early return" `Quick test_early_return;
      Alcotest.test_case "invariants in loop header" `Quick test_invariant_in_header;
      Alcotest.test_case "receiver autoderef" `Quick test_autoderef_receiver;
      Alcotest.test_case "liveness" `Quick test_liveness;
      Alcotest.test_case "reverse postorder" `Quick test_rpo;
      Alcotest.test_case "place types" `Quick test_place_ty;
      Alcotest.test_case "dominators" `Quick test_dominators;
      Alcotest.test_case "printer matches Format on every corpus body" `Quick
        test_printer_corpus;
      Alcotest.test_case "printer matches Format on every constructor" `Quick
        test_printer_constructors;
    ] )
