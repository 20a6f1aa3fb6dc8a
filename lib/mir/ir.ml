(** A MIR-style control-flow-graph IR, mirroring the representation the
    paper's implementation consumes ("Flux performs the analysis on
    Rust's Mid-level Intermediate Representation", §4).

    A function body is a graph of basic blocks over a flat array of
    typed locals. Local 0 is the return place; locals 1..arg_count are
    the arguments. Places are locals with deref/field projections;
    operands copy or move places or materialize constants. Function and
    method calls are block terminators. *)

open Flux_syntax

type local = int

type local_kind = KReturn | KArg | KUser | KTemp

type local_decl = {
  ld_name : string;
  ld_ty : Ast.ty;
  ld_kind : local_kind;
}

type proj = PDeref | PField of string

type place = { base : local; projs : proj list }

let local_place l = { base = l; projs = [] }

type constant =
  | CInt of int * Ast.int_kind
  | CFloat of float
  | CBool of bool
  | CUnit

type operand = Copy of place | Move of place | Const of constant

type rvalue =
  | RUse of operand
  | RBin of Ast.binop * operand * operand
  | RUn of Ast.unop * operand
  | RRef of Ast.mutability * place
  | RAggregate of string * (string * operand) list
      (** struct literal: name, field assignments in declaration order *)

type stmt =
  | SAssign of place * rvalue * Ast.span
  | SInvariant of Ast.expr * Ast.span
      (** Prusti [body_invariant!]; lives in the loop-header block *)
  | SNop

type terminator =
  | TGoto of int
  | TSwitch of operand * int * int  (** if: operand, then-block, else-block *)
  | TCall of {
      tc_func : string;
      tc_args : operand list;
      tc_dest : place;
      tc_target : int;
      tc_span : Ast.span;
    }
  | TReturn
  | TUnreachable

type block = { mutable stmts : stmt list; mutable term : terminator }

type body = {
  mb_name : string;
  mb_locals : local_decl array;
  mb_arg_count : int;
  mb_blocks : block array;
  mb_loop_heads : bool array;  (** targets of back edges *)
  mb_span : Ast.span;
}

let local_ty (b : body) (l : local) = b.mb_locals.(l).ld_ty

(** The plain type of a place, following projections. *)
let rec place_ty_from (prog : Ast.program) (t : Ast.ty) (projs : proj list) :
    Ast.ty =
  match projs with
  | [] -> t
  | PDeref :: rest -> (
      match t with
      | Ast.TRef (_, t') -> place_ty_from prog t' rest
      | _ -> invalid_arg "place_ty: deref of non-reference")
  | PField f :: rest -> (
      match t with
      | Ast.TStruct s -> (
          match Ast.find_struct prog s with
          | Some sd -> (
              match
                List.find_opt (fun fd -> String.equal fd.Ast.fd_name f) sd.Ast.st_fields
              with
              | Some fd -> place_ty_from prog fd.Ast.fd_ty rest
              | None -> invalid_arg ("place_ty: no field " ^ f))
          | None -> invalid_arg ("place_ty: unknown struct " ^ s))
      | _ -> invalid_arg "place_ty: field of non-struct")

let place_ty (prog : Ast.program) (b : body) (p : place) : Ast.ty =
  place_ty_from prog (local_ty b p.base) p.projs

(* ------------------------------------------------------------------ *)
(* CFG utilities                                                       *)
(* ------------------------------------------------------------------ *)

let successors (t : terminator) : int list =
  match t with
  | TGoto b -> [ b ]
  | TSwitch (_, b1, b2) -> [ b1; b2 ]
  | TCall { tc_target; _ } -> [ tc_target ]
  | TReturn | TUnreachable -> []

let predecessors (b : body) : int list array =
  let preds = Array.make (Array.length b.mb_blocks) [] in
  Array.iteri
    (fun i blk ->
      List.iter (fun s -> preds.(s) <- i :: preds.(s)) (successors blk.term))
    b.mb_blocks;
  preds

(** Reverse postorder from block 0. Unreachable blocks are appended at
    the end (they still typecheck vacuously). *)
let reverse_postorder (b : body) : int list =
  let n = Array.length b.mb_blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs (successors b.mb_blocks.(i).term);
      order := i :: !order
    end
  in
  dfs 0;
  let unreachable = ref [] in
  for i = n - 1 downto 0 do
    if not visited.(i) then unreachable := i :: !unreachable
  done;
  !order @ !unreachable

(** Immediate dominance as full dominator sets (iterative bit-vector
    algorithm; the CFGs here are small). [dom.(b)] is the set of blocks
    that dominate [b], including [b] itself. Unreachable blocks get the
    full set. *)
let dominators (b : body) : bool array array =
  let n = Array.length b.mb_blocks in
  let preds = predecessors b in
  let dom = Array.init n (fun i -> Array.make n (i <> 0 || n = 0)) in
  if n > 0 then begin
    Array.fill dom.(0) 0 n false;
    dom.(0).(0) <- true;
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        match preds.(i) with
        | [] -> ()
        | p0 :: rest ->
            let inter = Array.copy dom.(p0) in
            List.iter
              (fun p ->
                for j = 0 to n - 1 do
                  inter.(j) <- inter.(j) && dom.(p).(j)
                done)
              rest;
            inter.(i) <- true;
            if inter <> dom.(i) then begin
              dom.(i) <- inter;
              changed := true
            end
      done
    done
  end;
  dom

(** Mark loop headers: targets of back edges in a DFS from entry. *)
let compute_loop_heads (blocks : block array) : bool array =
  let n = Array.length blocks in
  let heads = Array.make n false in
  let state = Array.make n 0 (* 0 unvisited, 1 on stack, 2 done *) in
  let rec dfs i =
    state.(i) <- 1;
    List.iter
      (fun s ->
        if state.(s) = 1 then heads.(s) <- true
        else if state.(s) = 0 then dfs s)
      (successors blocks.(i).term);
    state.(i) <- 2
  in
  if n > 0 then dfs 0;
  heads

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* The printer writes straight into a buffer. Its bytes are both the
   [--dump-mir] text and the material of every cache key
   ({!Flux_engine.Cache.body_fingerprint}), so an edit that changes them
   invalidates every persistent cache entry: test/test_mir.ml pins them
   against a Format reference printer kept there. It renders no source
   spans. *)

let add_place (b : body) buf (p : place) =
  let rec go = function
    | [] -> Buffer.add_string buf b.mb_locals.(p.base).ld_name
    | PDeref :: rest ->
        Buffer.add_string buf "(*";
        go rest;
        Buffer.add_char buf ')'
    | PField f :: rest ->
        go rest;
        Buffer.add_char buf '.';
        Buffer.add_string buf f
  in
  go (List.rev p.projs)

let add_int buf n = Buffer.add_string buf (string_of_int n)

let add_constant buf = function
  | CInt (n, k) ->
      add_int buf n;
      Buffer.add_char buf '_';
      Buffer.add_string buf (Ast.int_kind_str k)
  | CFloat f -> Printf.bprintf buf "%g" f
  | CBool v -> Buffer.add_string buf (string_of_bool v)
  | CUnit -> Buffer.add_string buf "()"

let add_operand (b : body) buf = function
  | Copy p ->
      Buffer.add_string buf "copy ";
      add_place b buf p
  | Move p ->
      Buffer.add_string buf "move ";
      add_place b buf p
  | Const c -> add_constant buf c

let add_list buf add = function
  | [] -> ()
  | x :: rest ->
      add x;
      List.iter
        (fun y ->
          Buffer.add_string buf ", ";
          add y)
        rest

let add_rvalue (b : body) buf = function
  | RUse op -> add_operand b buf op
  | RBin (op, a1, a2) ->
      add_operand b buf a1;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ast.binop_str op);
      Buffer.add_char buf ' ';
      add_operand b buf a2
  | RUn (Ast.Not, a) ->
      Buffer.add_char buf '!';
      add_operand b buf a
  | RUn (Ast.NegOp, a) ->
      Buffer.add_char buf '-';
      add_operand b buf a
  | RRef (Ast.Imm, p) ->
      Buffer.add_char buf '&';
      add_place b buf p
  | RRef (Ast.Mut, p) ->
      Buffer.add_string buf "&mut ";
      add_place b buf p
  | RAggregate (s, fields) ->
      Buffer.add_string buf s;
      Buffer.add_string buf " { ";
      add_list buf
        (fun (f, op) ->
          Buffer.add_string buf f;
          Buffer.add_string buf ": ";
          add_operand b buf op)
        fields;
      Buffer.add_string buf " }"

(* One line each, indented by four. *)
let add_stmt (b : body) buf = function
  | SAssign (p, rv, _) ->
      Buffer.add_string buf "    ";
      add_place b buf p;
      Buffer.add_string buf " = ";
      add_rvalue b buf rv;
      Buffer.add_string buf ";\n"
  | SInvariant (e, _) ->
      (* [Ast.pp_expr] may open boxes, so this line goes through
         Format, alone on a fresh formatter: its layout depends on
         nothing printed before it *)
      Buffer.add_string buf
        (Format.asprintf "    invariant(%a);" Ast.pp_expr e);
      Buffer.add_char buf '\n'
  | SNop -> Buffer.add_string buf "    nop;\n"

let add_terminator (b : body) buf t =
  Buffer.add_string buf "    ";
  (match t with
  | TGoto i ->
      Buffer.add_string buf "goto bb";
      add_int buf i;
      Buffer.add_char buf ';'
  | TSwitch (op, t, f) ->
      Buffer.add_string buf "if ";
      add_operand b buf op;
      Buffer.add_string buf " -> [bb";
      add_int buf t;
      Buffer.add_string buf ", bb";
      add_int buf f;
      Buffer.add_string buf "];"
  | TCall { tc_func; tc_args; tc_dest; tc_target; _ } ->
      add_place b buf tc_dest;
      Buffer.add_string buf " = ";
      Buffer.add_string buf tc_func;
      Buffer.add_char buf '(';
      add_list buf (add_operand b buf) tc_args;
      Buffer.add_string buf ") -> bb";
      add_int buf tc_target;
      Buffer.add_char buf ';'
  | TReturn -> Buffer.add_string buf "return;"
  | TUnreachable -> Buffer.add_string buf "unreachable;");
  Buffer.add_char buf '\n'

let body_to_string (b : body) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fn ";
  Buffer.add_string buf b.mb_name;
  Buffer.add_string buf " {\n";
  Array.iteri
    (fun i (d : local_decl) ->
      Buffer.add_string buf "  let ";
      Buffer.add_string buf d.ld_name;
      Buffer.add_string buf ": ";
      Ast.add_ty buf d.ld_ty;
      Buffer.add_string buf "; // _";
      add_int buf i;
      Buffer.add_string buf
        (match d.ld_kind with
        | KReturn -> " (return)\n"
        | KArg -> " (arg)\n"
        | KUser -> " \n"
        | KTemp -> " (temp)\n"))
    b.mb_locals;
  Array.iteri
    (fun i blk ->
      Buffer.add_string buf "  bb";
      add_int buf i;
      Buffer.add_string buf
        (if b.mb_loop_heads.(i) then " (loop head):\n" else ":\n");
      List.iter (add_stmt b buf) blk.stmts;
      add_terminator b buf blk.term)
    b.mb_blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_body fmt (b : body) = Format.pp_print_string fmt (body_to_string b)
