(** Surface AST for the Rust subset checked by Flux.

    The subset covers everything the paper's evaluation exercises:
    functions with [#[lr::sig(...)]] refinement signatures, structs with
    [#[lr::refined_by]]/[#[lr::field]] attributes and [impl] blocks,
    `let`/`while`/`if`/assignment statements, integer/float/boolean
    expressions, calls, method calls (incl. the built-in [RVec] API) and
    reference creation/dereference. Prusti-style specifications
    ([#[requires]], [#[ensures]], [body_invariant!]) share the same
    expression grammar extended with [forall], [old] and [==>]. *)

(* ------------------------------------------------------------------ *)
(* Positions                                                           *)
(* ------------------------------------------------------------------ *)

type pos = { line : int; col : int }
type span = { sp_start : pos; sp_end : pos }

let dummy_pos = { line = 0; col = 0 }
let dummy_span = { sp_start = dummy_pos; sp_end = dummy_pos }

let pp_span fmt s =
  if s.sp_start.line = 0 then Format.pp_print_string fmt "<builtin>"
  else Format.fprintf fmt "%d:%d" s.sp_start.line s.sp_start.col

(* ------------------------------------------------------------------ *)
(* Unrefined (plain Rust) types                                        *)
(* ------------------------------------------------------------------ *)

type int_kind = I32 | I64 | Usize | Isize

type mutability = Imm | Mut

type ty =
  | TInt of int_kind
  | TFloat  (** f32 *)
  | TBool
  | TUnit
  | TVec of ty  (** RVec<ty> *)
  | TStruct of string
  | TRef of mutability * ty
  | TParam of string  (** generic parameter, used in library signatures *)
  | TInfer of int  (** unification variable, local type inference only *)

let rec ty_equal a b =
  match (a, b) with
  | TInt k1, TInt k2 -> k1 = k2
  | TFloat, TFloat | TBool, TBool | TUnit, TUnit -> true
  | TVec t1, TVec t2 -> ty_equal t1 t2
  | TStruct s1, TStruct s2 -> String.equal s1 s2
  | TRef (m1, t1), TRef (m2, t2) -> m1 = m2 && ty_equal t1 t2
  | TParam x, TParam y -> String.equal x y
  | TInfer i, TInfer j -> i = j
  | _ -> false

let int_kind_str = function
  | I32 -> "i32"
  | I64 -> "i64"
  | Usize -> "usize"
  | Isize -> "isize"

(** Types print on one line, with no break hints, so {!pp_ty} prints
    the same bytes as {!add_ty} under any formatter state. *)
let rec add_ty buf = function
  | TInt k -> Buffer.add_string buf (int_kind_str k)
  | TFloat -> Buffer.add_string buf "f32"
  | TBool -> Buffer.add_string buf "bool"
  | TUnit -> Buffer.add_string buf "()"
  | TVec t ->
      Buffer.add_string buf "RVec<";
      add_ty buf t;
      Buffer.add_char buf '>'
  | TStruct s -> Buffer.add_string buf s
  | TRef (Imm, t) ->
      Buffer.add_char buf '&';
      add_ty buf t
  | TRef (Mut, t) ->
      Buffer.add_string buf "&mut ";
      add_ty buf t
  | TParam x -> Buffer.add_string buf x
  | TInfer i ->
      Buffer.add_char buf '_';
      Buffer.add_string buf (string_of_int i)

let pp_ty fmt t =
  let buf = Buffer.create 16 in
  add_ty buf t;
  Format.pp_print_string fmt (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | EqOp
  | NeOp
  | AndOp
  | OrOp
  | ImpOp  (** [==>], spec contexts only *)

type unop = Not | NegOp

type expr = {
  e : expr_kind;
  e_span : span;
  mutable e_ty : ty option;  (** filled in by the unrefined typechecker *)
}

and expr_kind =
  | EInt of int
  | EFloat of float
  | EBool of bool
  | EUnit
  | EVar of string
  | EBin of binop * expr * expr
  | EUn of unop * expr
  | ECall of string * expr list  (** includes path calls like [RVec::new] *)
  | EMethod of expr * string * expr list
  | EField of expr * string
  | EStruct of string * (string * expr) list
  | ERef of mutability * expr
  | EDeref of expr
  | EIf of expr * block * block option  (** if-expression *)
  | EBlock of block
  (* --- specification-only forms --- *)
  | EForall of (string * ty) list * expr  (** forall(|x: usize| p) *)
  | EOld of expr  (** old(e) in Prusti postconditions *)
  | EResult  (** [result] in Prusti postconditions *)

and block = { stmts : stmt list; tail : expr option; b_span : span }

and stmt =
  | SLet of { lname : string; lmut : bool; lty : ty option; linit : expr; lspan : span }
  | SAssign of expr * binop option * expr * span
      (** place, optional compound op (for [+=] etc.), rhs *)
  | SExpr of expr
  | SWhile of expr * block * span
  | SInvariant of expr * span
      (** [body_invariant!(p)] — a Prusti loop-invariant annotation; only
          meaningful at the head of a [while] body *)
  | SReturn of expr option * span
  | SBreak of span

let mk_expr ?(span = dummy_span) e = { e; e_span = span; e_ty = None }

let expr_span e = e.e_span

(* ------------------------------------------------------------------ *)
(* Refinement specification types                                      *)
(* ------------------------------------------------------------------ *)

(** Refinement expressions: parsed form of index/predicate expressions
    in [lr::sig] attributes and Prusti contracts. They reuse [expr];
    variables refer to refinement parameters and the value binder. *)
type rexpr = expr

(** An index position in a refined base type. *)
type index =
  | IxExpr of rexpr  (** e.g. [i32<n+1>] *)
  | IxBinder of string  (** [@n]: binds a signature-scoped parameter *)

(** Refined surface types of the spec language. *)
type rty =
  | RBase of rbase * index list
      (** [B<ix,..>]; an empty index list means unrefined (≡ ∃v. true) *)
  | RExists of string * rbase * rexpr  (** [B{v: p}] *)
  | RRef of refkind * rty
  | RFn of fn_spec  (** only for nested positions; unused at present *)

and rbase =
  | RBInt of int_kind
  | RBFloat
  | RBBool
  | RBUnit
  | RBVec of rty  (** RVec<τ, ·> element type *)
  | RBStruct of string
  | RBParam of string

and refkind = RShr | RMut | RStrg

and fn_spec = {
  fs_args : rty list;  (** positional argument types *)
  fs_ret : rty;
  fs_requires : rexpr list;
  fs_ensures : (string * rty) list;
      (** [ensures *x: τ] — updated type of strong-reference argument [x];
          the name refers to the surface parameter at the same position *)
}

(** Prusti-style contracts attached to a function. *)
type contract = {
  c_requires : rexpr list;
  c_ensures : rexpr list;
}

let empty_contract = { c_requires = []; c_ensures = [] }

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

type fn_def = {
  fn_name : string;  (** mangled with the impl target, e.g. "RMat::new" *)
  fn_params : (string * ty) list;
  fn_ret : ty;
  fn_body : block option;  (** [None] for trusted/extern declarations *)
  fn_sig : fn_spec option;  (** Flux signature from [#[lr::sig(...)]] *)
  fn_contract : contract;  (** Prusti contract, if any *)
  fn_trusted : bool;
  fn_span : span;
}

type field_def = {
  fd_name : string;
  fd_ty : ty;
  fd_rty : rty option;  (** from [#[lr::field(...)]] *)
}

type struct_def = {
  st_name : string;
  st_refined_by : (string * Flux_smt.Sort.t) list;
  st_fields : field_def list;
  st_invariant : rexpr option;  (** an optional index invariant *)
  st_span : span;
}

type item = IFn of fn_def | IStruct of struct_def

type program = item list

let program_fns (p : program) =
  List.filter_map (function IFn f -> Some f | _ -> None) p

let program_structs (p : program) =
  List.filter_map (function IStruct s -> Some s | _ -> None) p

let find_fn (p : program) name =
  List.find_opt (fun f -> String.equal f.fn_name name) (program_fns p)

let find_struct (p : program) name =
  List.find_opt (fun s -> String.equal s.st_name name) (program_structs p)

(* ------------------------------------------------------------------ *)
(* Pretty printing (for diagnostics and golden tests)                  *)
(* ------------------------------------------------------------------ *)

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | EqOp -> "=="
  | NeOp -> "!="
  | AndOp -> "&&"
  | OrOp -> "||"
  | ImpOp -> "==>"

let rec pp_expr fmt e =
  match e.e with
  | EInt n -> Format.pp_print_int fmt n
  | EFloat x -> Format.fprintf fmt "%g" x
  | EBool b -> Format.pp_print_bool fmt b
  | EUnit -> Format.pp_print_string fmt "()"
  | EVar x -> Format.pp_print_string fmt x
  | EBin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | EUn (Not, a) -> Format.fprintf fmt "!%a" pp_expr a
  | EUn (NegOp, a) -> Format.fprintf fmt "-%a" pp_expr a
  | ECall (f, args) -> Format.fprintf fmt "%s(%a)" f pp_args args
  | EMethod (r, m, args) ->
      Format.fprintf fmt "%a.%s(%a)" pp_expr r m pp_args args
  | EField (r, f) -> Format.fprintf fmt "%a.%s" pp_expr r f
  | EStruct (s, fields) ->
      Format.fprintf fmt "%s { %a }" s
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (fun fmt (f, e) -> Format.fprintf fmt "%s: %a" f pp_expr e))
        fields
  | ERef (Imm, e) -> Format.fprintf fmt "&%a" pp_expr e
  | ERef (Mut, e) -> Format.fprintf fmt "&mut %a" pp_expr e
  | EDeref e -> Format.fprintf fmt "*%a" pp_expr e
  | EIf (c, t, None) -> Format.fprintf fmt "if %a %a" pp_expr c pp_block t
  | EIf (c, t, Some f) ->
      Format.fprintf fmt "if %a %a else %a" pp_expr c pp_block t pp_block f
  | EBlock b -> pp_block fmt b
  | EForall (params, body) ->
      Format.fprintf fmt "forall(|%a| %a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (fun fmt (x, t) -> Format.fprintf fmt "%s: %a" x pp_ty t))
        params pp_expr body
  | EOld e -> Format.fprintf fmt "old(%a)" pp_expr e
  | EResult -> Format.pp_print_string fmt "result"

and pp_args fmt args =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp_expr fmt args

and pp_block fmt b =
  Format.fprintf fmt "{@[<v 2>@ %a%a@]@ }"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt)
    b.stmts
    (fun fmt -> function
      | None -> ()
      | Some e -> Format.fprintf fmt "@ %a" pp_expr e)
    b.tail

and pp_stmt fmt = function
  | SLet { lname; lmut; lty; linit; _ } ->
      Format.fprintf fmt "let %s%s%a = %a;"
        (if lmut then "mut " else "")
        lname
        (fun fmt -> function
          | None -> ()
          | Some t -> Format.fprintf fmt ": %a" pp_ty t)
        lty pp_expr linit
  | SAssign (p, None, e, _) -> Format.fprintf fmt "%a = %a;" pp_expr p pp_expr e
  | SAssign (p, Some op, e, _) ->
      Format.fprintf fmt "%a %s= %a;" pp_expr p (binop_str op) pp_expr e
  | SExpr e -> Format.fprintf fmt "%a;" pp_expr e
  | SWhile (c, b, _) -> Format.fprintf fmt "while %a %a" pp_expr c pp_block b
  | SInvariant (e, _) -> Format.fprintf fmt "body_invariant!(%a);" pp_expr e
  | SReturn (None, _) -> Format.pp_print_string fmt "return;"
  | SReturn (Some e, _) -> Format.fprintf fmt "return %a;" pp_expr e
  | SBreak _ -> Format.pp_print_string fmt "break;"

let rec pp_rty fmt = function
  | RBase (b, []) -> pp_rbase fmt b
  | RBase (b, ixs) ->
      Format.fprintf fmt "%a<%a>" pp_rbase b
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_index)
        ixs
  | RExists (v, b, p) ->
      Format.fprintf fmt "%a{%s: %a}" pp_rbase b v pp_expr p
  | RRef (RShr, t) -> Format.fprintf fmt "&%a" pp_rty t
  | RRef (RMut, t) -> Format.fprintf fmt "&mut %a" pp_rty t
  | RRef (RStrg, t) -> Format.fprintf fmt "&strg %a" pp_rty t
  | RFn _ -> Format.pp_print_string fmt "<fn>"

and pp_rbase fmt = function
  | RBInt k -> Format.pp_print_string fmt (int_kind_str k)
  | RBFloat -> Format.pp_print_string fmt "f32"
  | RBBool -> Format.pp_print_string fmt "bool"
  | RBUnit -> Format.pp_print_string fmt "()"
  | RBVec t -> Format.fprintf fmt "RVec<%a>" pp_rty t
  | RBStruct s -> Format.pp_print_string fmt s
  | RBParam x -> Format.pp_print_string fmt x

and pp_index fmt = function
  | IxExpr e -> pp_expr fmt e
  | IxBinder x -> Format.fprintf fmt "@%s" x

(* ------------------------------------------------------------------ *)
(* Source rendering                                                    *)
(* ------------------------------------------------------------------ *)

(* A re-parseable concrete-syntax printer, used by the fuzzer's
   shrinker to turn a reduced AST back into a candidate input. Unlike
   the diagnostic printers above it must survive a round trip through
   the lexer and parser, which drives its few idiosyncrasies:

   - every binary/unary application is parenthesized, so index
     expressions inside [<...>] never expose a top-level [>]/[>=] (the
     lexer treats [>] as the closing bracket there; parentheses restore
     the full grammar);
   - negative numeric literals print as [(-n)] so the round trip is
     idempotent (the parser reads them back as negations, which print
     the same way);
   - float literals always carry a ['.'], otherwise they would re-lex
     as integers;
   - mangled method names ([T::m]) are regrouped into [impl T] blocks.

   Round-tripping normalizes spans and sugar ([x += e] becomes
   [x = x + e] only in print form, never in the AST — compound
   assignment is preserved); it is source-stable: print ∘ parse ∘ print
   = print. *)

let src_float (f : float) : string =
  let s = Printf.sprintf "%.12g" f in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec src_expr buf (e : expr) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  match e.e with
  | EInt n -> if n < 0 then pf "(-%s)" (string_of_int (-n)) else pf "%d" n
  | EFloat f ->
      if f < 0.0 then pf "(-%s)" (src_float (-.f)) else pf "%s" (src_float f)
  | EBool b -> pf "%b" b
  | EUnit -> pf "()"
  | EVar x -> pf "%s" x
  | EBin (op, a, b) ->
      pf "(";
      src_expr buf a;
      pf " %s " (binop_str op);
      src_expr buf b;
      pf ")"
  | EUn (Not, a) ->
      pf "(!";
      src_expr buf a;
      pf ")"
  | EUn (NegOp, a) ->
      pf "(-";
      src_expr buf a;
      pf ")"
  | ECall (f, args) ->
      pf "%s(" f;
      src_args buf args;
      pf ")"
  | EMethod (r, m, args) ->
      src_expr buf r;
      pf ".%s(" m;
      src_args buf args;
      pf ")"
  | EField (r, f) ->
      src_expr buf r;
      pf ".%s" f
  | EStruct (s, fields) ->
      pf "%s { " s;
      List.iteri
        (fun i (f, e) ->
          if i > 0 then pf ", ";
          pf "%s: " f;
          src_expr buf e)
        fields;
      pf " }"
  | ERef (Imm, e) ->
      pf "&";
      src_expr buf e
  | ERef (Mut, e) ->
      pf "&mut ";
      src_expr buf e
  | EDeref e ->
      pf "(*";
      src_expr buf e;
      pf ")"
  | EIf (c, t, f) -> (
      pf "if ";
      src_expr buf c;
      pf " ";
      src_block buf 0 t;
      match f with
      | None -> ()
      | Some f ->
          pf " else ";
          src_block buf 0 f)
  | EBlock b -> src_block buf 0 b
  | EForall (params, body) ->
      pf "forall(|";
      List.iteri
        (fun i (x, t) ->
          if i > 0 then pf ", ";
          pf "%s: %s" x (Format.asprintf "%a" pp_ty t))
        params;
      pf "| ";
      src_expr buf body;
      pf ")"
  | EOld e ->
      pf "old(";
      src_expr buf e;
      pf ")"
  | EResult -> pf "result"

and src_args buf args =
  List.iteri
    (fun i a ->
      if i > 0 then Printf.bprintf buf ", ";
      src_expr buf a)
    args

and src_block buf ind (b : block) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  let pad = String.make (ind + 4) ' ' in
  pf "{\n";
  List.iter
    (fun s ->
      pf "%s" pad;
      src_stmt buf (ind + 4) s;
      pf "\n")
    b.stmts;
  (match b.tail with
  | None -> ()
  | Some e ->
      pf "%s" pad;
      src_expr buf e;
      pf "\n");
  pf "%s}" (String.make ind ' ')

and src_stmt buf ind (s : stmt) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  match s with
  | SLet { lname; lmut; lty; linit; _ } ->
      pf "let %s%s" (if lmut then "mut " else "") lname;
      (match lty with
      | None -> ()
      | Some t -> pf ": %s" (Format.asprintf "%a" pp_ty t));
      pf " = ";
      src_expr buf linit;
      pf ";"
  | SAssign (p, op, e, _) ->
      src_expr buf p;
      (match op with
      | None -> pf " = "
      | Some op -> pf " %s= " (binop_str op));
      src_expr buf e;
      pf ";"
  | SExpr ({ e = EIf _ | EBlock _; _ } as e) -> src_expr buf e
  | SExpr e ->
      src_expr buf e;
      pf ";"
  | SWhile (c, b, _) ->
      pf "while ";
      src_expr buf c;
      pf " ";
      src_block buf ind b
  | SInvariant (e, _) ->
      pf "body_invariant!(";
      src_expr buf e;
      pf ");"
  | SReturn (None, _) -> pf "return;"
  | SReturn (Some e, _) ->
      pf "return ";
      src_expr buf e;
      pf ";"
  | SBreak _ -> pf "break;"

let rec src_rty buf (t : rty) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  let src_ix ix =
    match ix with
    | IxBinder x -> pf "@%s" x
    | IxExpr e -> src_expr buf e
  in
  match t with
  | RBase (b, []) -> src_rbase buf b
  | RBase (RBVec elt, ixs) ->
      (* indices share the element's angle brackets: RVec<i32, @n> *)
      pf "RVec<";
      src_rty buf elt;
      List.iter
        (fun ix ->
          pf ", ";
          src_ix ix)
        ixs;
      pf ">"
  | RBase (b, ixs) ->
      src_rbase buf b;
      pf "<";
      List.iteri
        (fun i ix ->
          if i > 0 then pf ", ";
          src_ix ix)
        ixs;
      pf ">"
  | RExists (v, b, p) ->
      src_rbase buf b;
      pf "{%s: " v;
      src_expr buf p;
      pf "}"
  | RRef (RShr, t) ->
      pf "&";
      src_rty buf t
  | RRef (RMut, t) ->
      pf "&mut ";
      src_rty buf t
  | RRef (RStrg, t) ->
      pf "&strg ";
      src_rty buf t
  | RFn _ -> pf "<fn>"

and src_rbase buf (b : rbase) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  match b with
  | RBInt k -> pf "%s" (int_kind_str k)
  | RBFloat -> pf "f32"
  | RBBool -> pf "bool"
  | RBUnit -> pf "()"
  | RBVec t ->
      pf "RVec<";
      src_rty buf t;
      pf ">"
  | RBStruct s -> pf "%s" s
  | RBParam x -> pf "%s" x

let src_fn_sig buf (fs : fn_spec) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  pf "#[lr::sig(fn(";
  List.iteri
    (fun i t ->
      if i > 0 then pf ", ";
      src_rty buf t)
    fs.fs_args;
  pf ") -> ";
  src_rty buf fs.fs_ret;
  List.iter
    (fun e ->
      pf " requires ";
      src_expr buf e)
    fs.fs_requires;
  List.iter
    (fun (x, t) ->
      pf " ensures %s: " x;
      src_rty buf t)
    fs.fs_ensures;
  pf ")]\n"

let src_fn buf ~(impl_self : string option) (fd : fn_def) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  let ind = if impl_self = None then 0 else 4 in
  let pad = String.make ind ' ' in
  let local_name =
    match impl_self with
    | None -> fd.fn_name
    | Some prefix ->
        let plen = String.length prefix + 2 in
        String.sub fd.fn_name plen (String.length fd.fn_name - plen)
  in
  if fd.fn_trusted then pf "%s#[lr::trusted]\n" pad;
  (match fd.fn_sig with
  | None -> ()
  | Some fs ->
      pf "%s" pad;
      src_fn_sig buf fs);
  List.iter
    (fun e ->
      pf "%s#[requires(" pad;
      src_expr buf e;
      pf ")]\n")
    fd.fn_contract.c_requires;
  List.iter
    (fun e ->
      pf "%s#[ensures(" pad;
      src_expr buf e;
      pf ")]\n")
    fd.fn_contract.c_ensures;
  pf "%sfn %s(" pad local_name;
  List.iteri
    (fun i (x, t) ->
      if i > 0 then pf ", ";
      match (x, t) with
      | "self", TRef (Imm, TStruct _) -> pf "&self"
      | "self", TRef (Mut, TStruct _) -> pf "&mut self"
      | "self", TStruct _ -> pf "self"
      | _ -> pf "%s: %s" x (Format.asprintf "%a" pp_ty t))
    fd.fn_params;
  pf ")";
  (match fd.fn_ret with
  | TUnit -> ()
  | t -> pf " -> %s" (Format.asprintf "%a" pp_ty t));
  match fd.fn_body with
  | None -> pf ";\n"
  | Some b ->
      pf " ";
      src_block buf ind b;
      pf "\n"

let src_struct buf (sd : struct_def) : unit =
  let pf fmt = Printf.bprintf buf fmt in
  (match sd.st_refined_by with
  | [] -> ()
  | binds ->
      pf "#[lr::refined_by(";
      List.iteri
        (fun i (x, s) ->
          if i > 0 then pf ", ";
          pf "%s: %s" x (Flux_smt.Sort.to_string s))
        binds;
      pf ")]\n");
  (match sd.st_invariant with
  | None -> ()
  | Some e ->
      pf "#[lr::invariant(";
      src_expr buf e;
      pf ")]\n");
  pf "struct %s {\n" sd.st_name;
  List.iter
    (fun f ->
      (match f.fd_rty with
      | None -> ()
      | Some t ->
          pf "    #[lr::field(";
          src_rty buf t;
          pf ")]\n");
      pf "    %s: %s,\n" f.fd_name (Format.asprintf "%a" pp_ty f.fd_ty))
    sd.st_fields;
  pf "}\n"

(** Method prefix of a mangled function name: [Some "T"] for ["T::m"]. *)
let fn_impl_prefix (fd : fn_def) : string option =
  match String.index_opt fd.fn_name ':' with
  | Some i when i + 1 < String.length fd.fn_name && fd.fn_name.[i + 1] = ':' ->
      Some (String.sub fd.fn_name 0 i)
  | _ -> None

let program_to_source (p : program) : string =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.bprintf buf fmt in
  let rec go = function
    | [] -> ()
    | IStruct sd :: rest ->
        src_struct buf sd;
        pf "\n";
        go rest
    | IFn fd :: rest -> (
        match fn_impl_prefix fd with
        | None ->
            src_fn buf ~impl_self:None fd;
            pf "\n";
            go rest
        | Some prefix ->
            (* group the run of consecutive methods of the same target *)
            let rec split acc = function
              | IFn fd' :: rest when fn_impl_prefix fd' = Some prefix ->
                  split (fd' :: acc) rest
              | rest -> (List.rev acc, rest)
            in
            let methods, rest = split [ fd ] rest in
            pf "impl %s {\n" prefix;
            List.iter (fun m -> src_fn buf ~impl_self:(Some prefix) m) methods;
            pf "}\n\n";
            go rest)
  in
  go p;
  Buffer.contents buf

(** Render one expression to concrete syntax (used in oracle reports). *)
let expr_to_source (e : expr) : string =
  let buf = Buffer.create 64 in
  src_expr buf e;
  Buffer.contents buf
