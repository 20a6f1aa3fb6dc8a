(** Theory solver for conjunctions of linear integer constraints.

    Feasibility is decided by Fourier–Motzkin elimination with integer
    tightening (constraint normalization by the gcd of the variable
    coefficients, flooring the constant). Rational infeasibility implies
    integer infeasibility, so reporting [false] ("unsat") is always
    sound; reporting [true] may over-approximate satisfiability, which
    makes the overall validity checker sound-but-incomplete — the right
    polarity for a verifier (it can reject a good program but never
    accept a bad one).

    Constraints are [Σ cᵢ·xᵢ + k ≤ 0] over integer variables; strict
    inequalities are tightened to non-strict ones up front ([a < b]
    becomes [a + 1 ≤ b]). Equalities are eliminated by substitution when
    a unit-coefficient variable is available, otherwise split into two
    inequalities.

    Elimination rounds hold one entry per distinct row with the number
    of copies of it the textbook procedure would hold, and build each
    distinct (positive, negative) pair of entries once: a weakening
    hypothesis repeats a handful of rows many times, and the copies
    multiply round after round. The rounds take the textbook
    procedure's decisions exactly (see [fm]); the test suite keeps that
    procedure as the reference. *)

module SMap = Map.Make (String)

type lin = { coeffs : int SMap.t; const : int }
(** [Σ coeffs(x)·x + const], as a linear integer form. *)

let lin_zero = { coeffs = SMap.empty; const = 0 }
let lin_const k = { coeffs = SMap.empty; const = k }
let lin_var x = { coeffs = SMap.singleton x 1; const = 0 }

let lin_add a b =
  {
    coeffs =
      SMap.union
        (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2))
        a.coeffs b.coeffs;
    const = a.const + b.const;
  }

let lin_scale k a =
  if k = 0 then lin_zero
  else { coeffs = SMap.map (fun c -> k * c) a.coeffs; const = k * a.const }

let lin_sub a b = lin_add a (lin_scale (-1) b)
let lin_is_const a = SMap.is_empty a.coeffs

let pp_lin fmt a =
  let first = ref true in
  SMap.iter
    (fun x c ->
      if !first then (
        first := false;
        if c = 1 then Format.fprintf fmt "%s" x
        else Format.fprintf fmt "%d*%s" c x)
      else if c >= 0 then
        if c = 1 then Format.fprintf fmt " + %s" x
        else Format.fprintf fmt " + %d*%s" c x
      else if c = -1 then Format.fprintf fmt " - %s" x
      else Format.fprintf fmt " - %d*%s" (-c) x)
    a.coeffs;
  if !first then Format.fprintf fmt "%d" a.const
  else if a.const > 0 then Format.fprintf fmt " + %d" a.const
  else if a.const < 0 then Format.fprintf fmt " - %d" (-a.const)

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Euclidean-style floor division (rounds toward negative infinity). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(** Tighten [lin ≤ 0]: divide the variable part by its gcd [g] and take
    the floor of [const/g]. Returns [None] if the constraint is the
    trivially true [k ≤ 0] with [k ≤ 0], and [Some] otherwise. Raises
    [Infeasible] on a constant contradiction. *)
exception Infeasible

let tighten (a : lin) : lin option =
  if lin_is_const a then if a.const > 0 then raise Infeasible else None
  else
    let g = SMap.fold (fun _ c acc -> gcd c acc) a.coeffs 0 in
    if g <= 1 then Some a
    else
      Some
        {
          coeffs = SMap.map (fun c -> c / g) a.coeffs;
          (* c·g·x + k ≤ 0  ⟺  c·x ≤ floor(-k/g)  ⟺ c·x - floor(-k/g) ≤ 0 *)
          const = -fdiv (-a.const) g;
        }

(* ------------------------------------------------------------------ *)
(* Equality elimination                                                *)
(* ------------------------------------------------------------------ *)

(** Substitute [x := rhs] (where the equality is [x = rhs]) into [a]. *)
let lin_subst x (rhs : lin) (a : lin) =
  match SMap.find_opt x a.coeffs with
  | None -> a
  | Some c ->
      let a' = { a with coeffs = SMap.remove x a.coeffs } in
      lin_add a' (lin_scale c rhs)

(** From an equality [e = 0], find a variable with coefficient ±1 and
    return [(x, rhs)] such that [x = rhs]. *)
let solvable_eq (e : lin) : (string * lin) option =
  let found =
    SMap.fold
      (fun x c acc ->
        match acc with
        | Some _ -> acc
        | None -> if c = 1 || c = -1 then Some (x, c) else None)
      e.coeffs None
  in
  match found with
  | None -> None
  | Some (x, c) ->
      (* c·x + rest = 0  ⟹  x = -rest/c; for c = ±1 this is exact. *)
      let rest = { e with coeffs = SMap.remove x e.coeffs } in
      Some (x, lin_scale (-c) rest)

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin                                                     *)
(* ------------------------------------------------------------------ *)

(** Bound on intermediate constraint-set size; beyond it we give up and
    answer "maybe satisfiable" (sound for the validity checker). *)
let fm_limit = 20_000

(** One distinct row of an elimination round. It stands for [mult]
    copies of [row] in the row list the textbook procedure would hold
    at this point. A round keeps its entries in the order of their
    first copies in that list; [last] orders the entries by the
    position of their last copies. *)
type entry = { row : lin; mutable mult : int; mutable last : int }

(** Rows compared by their bindings: equal maps may differ in shape. *)
module Rows = Hashtbl.Make (struct
  type t = lin

  let equal a b = a.const = b.const && SMap.equal Int.equal a.coeffs b.coeffs

  let hash a =
    SMap.fold
      (fun x c h -> (h * 65599) + (Hashtbl.hash x * 31) + c)
      a.coeffs a.const
    land max_int
end)

(** Pick the variable minimizing (#positive × #negative) occurrences,
    counted over row copies, to keep the FM blowup small. Entries come
    in the order of their first copies, so variables enter the tally in
    the order they first occur in the row list, and [Hashtbl.fold]
    meets them, and breaks ties, as it would over the list. *)
let choose_var (es : entry list) : string option =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun e ->
      SMap.iter
        (fun x k ->
          let p, n = try Hashtbl.find tally x with Not_found -> (0, 0) in
          if k > 0 then Hashtbl.replace tally x (p + e.mult, n)
          else Hashtbl.replace tally x (p, n + e.mult))
        e.row.coeffs)
    es;
  Hashtbl.fold
    (fun x (p, n) best ->
      let cost = p * n in
      match best with
      | Some (_, bcost) when bcost <= cost -> best
      | _ -> Some (x, cost))
    tally None
  |> Option.map fst

(** The entries of the rows [emit] produces, in the order it first
    produces each: equal rows merge, adding their multiplicities and
    keeping the larger [last]. *)
let entries (emit : (lin -> int -> int -> unit) -> unit) : entry list =
  let table = Rows.create 16 in
  let order = ref [] in
  emit (fun row mult last ->
      match Rows.find_opt table row with
      | Some e ->
          e.mult <- e.mult + mult;
          if last > e.last then e.last <- last
      | None ->
          let e = { row; mult; last } in
          Rows.add table row e;
          order := e :: !order);
  List.rev !order

(** Phase 2 of {!feasible_conn}: eliminate the variables of [rows]
    (each [≤ 0]) one a round. Raises [Infeasible] on a constant
    contradiction.

    A round holds entries, not the row list, yet takes the list
    procedure's decisions. Those read only each round's row multiset
    and the order in which variables first occur in the list (the
    tie-break of [choose_var]), and the entries keep both. DESIGN.md
    ("Fourier–Motzkin on row multisets") gives the argument. *)
let fm (rows : lin list) : bool =
  let rec round (es : entry list) =
    let es =
      List.filter_map
        (fun e -> Option.map (fun row -> { e with row }) (tighten e.row))
        es
    in
    if List.fold_left (fun n e -> n + e.mult) 0 es > fm_limit then true
      (* give up: maybe SAT *)
    else
      match choose_var es with
      | None -> true (* only constants left, all satisfied *)
      | Some x ->
          (* One pass in first-copy order, prepending as the list code
             does; [f] is an entry's first-copy rank. *)
          let _, pos, neg, rest =
            List.fold_left
              (fun (f, p, n, r) e ->
                match SMap.find_opt x e.row.coeffs with
                | Some k when k > 0 -> (f + 1, (f, e) :: p, n, r)
                | Some _ -> (f + 1, p, (f, e) :: n, r)
                | None -> (f + 1, p, n, (f, e) :: r))
              (0, [], [], []) es
          in
          (* The list code walks each part reversed, so the part's first
             copies come in descending order of last copies. *)
          let rec descending = function
            | (_, a) :: ((_, b) :: _ as tl) -> a.last > b.last && descending tl
            | _ -> true
          in
          let reversed part =
            if descending part then part
            else List.sort (fun (_, a) (_, b) -> compare b.last a.last) part
          in
          (* The next list holds, in order, each pair's copies, then
             the other rows. A pair's last copy pairs the last copies in
             the reversed parts, which are the entries' first copies:
             the keys below order those positions. *)
          let d = List.length es in
          let w = d + 1 in
          let pos = reversed pos and neg = reversed neg in
          let next =
            entries (fun add ->
                List.iter
                  (fun (fp, ep) ->
                    let a = SMap.find x ep.row.coeffs in
                    List.iter
                      (fun (fn, en) ->
                        let b = -SMap.find x en.row.coeffs in
                        (* b·cp + a·cn eliminates x (a>0, b>0). *)
                        add
                          (lin_add (lin_scale b ep.row) (lin_scale a en.row))
                          (ep.mult * en.mult)
                          (((d - fp) * w) + (d - fn)))
                      neg)
                  pos;
                List.iter
                  (fun (f, e) -> add e.row e.mult ((w * w) + (d - f)))
                  (reversed rest))
          in
          let copies l = List.fold_left (fun n (_, e) -> n + e.mult) 0 l in
          Profile.add "lia.fm_rows" (List.length pos * List.length neg);
          Profile.add "lia.fm_row_copies" (copies pos * copies neg);
          round next
  in
  round (entries (fun add -> List.iteri (fun i row -> add row 1 i) rows))

(** Phase 1 of {!feasible_conn}: eliminate the equalities [eqs] (each
    [= 0]) from [ineqs] (each [≤ 0]) by substitution, or split one into
    two inequalities when it has no unit coefficient. Returns the
    inequalities left; raises [Infeasible] on a contradiction. *)
let rec elim_eqs eqs ineqs =
  match eqs with
  | [] -> ineqs
  | e :: rest -> (
      if lin_is_const e then
        if e.const <> 0 then raise Infeasible else elim_eqs rest ineqs
      else
        match solvable_eq e with
        | Some (x, rhs) ->
            let sub = lin_subst x rhs in
            elim_eqs (List.map sub rest) (List.map sub ineqs)
        | None ->
            (* No unit coefficient: check gcd divisibility, then
               split into two inequalities. *)
            let g = SMap.fold (fun _ c acc -> gcd c acc) e.coeffs 0 in
            if g > 1 && e.const mod g <> 0 then raise Infeasible
            else elim_eqs rest (e :: lin_scale (-1) e :: ineqs))

(** Decide feasibility (over the rationals, with integer tightening) of
    the conjunction of [ineqs] (each [≤ 0]) and [eqs] (each [= 0]).
    Returns [false] only if definitely infeasible over the integers. *)
let feasible_conn ~(eqs : lin list) ~(ineqs : lin list) : bool =
  try fm (elim_eqs eqs ineqs) with Infeasible -> false

(** A constraint system split into connected components (constraints
    linked by shared variables). Variables are numbered densely by first
    occurrence, equalities before inequalities and each constraint's
    variables in key order, and each constraint joins its variables, in
    the same order, in an array union-find. A component is named by its
    root's number and lists its equalities and its inequalities in
    reverse input order. *)
type components = {
  ids : (string, int) Hashtbl.t;  (** variable → its number *)
  root : int array;  (** number → its component's root *)
  geqs : lin list array;  (** root → its component's equalities *)
  gineqs : lin list array;  (** root → its component's inequalities *)
}

(** [ineqs] (each [≤ 0]) or [eqs] (each [= 0]) hold a false constant
    constraint. *)
let constant_contradiction ~eqs ~ineqs =
  List.exists (fun c -> lin_is_const c && c.const <> 0) eqs
  || List.exists (fun c -> lin_is_const c && c.const > 0) ineqs

(** A constraint's variable numbers, largest key first: the first one is
    joined to each of the others in turn. *)
let var_ids id c = SMap.fold (fun x _ acc -> id x :: acc) c.coeffs []

let components ~(eqs : lin list) ~(ineqs : lin list) : components =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let id x =
    match Hashtbl.find_opt ids x with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids x i;
        i
  in
  let eq_vars = List.map (var_ids id) eqs in
  let ineq_vars = List.map (var_ids id) ineqs in
  let n = Hashtbl.length ids in
  let parent = Array.init n Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else
      let r = find p in
      parent.(i) <- r;
      r
  in
  let join = function
    | [] -> ()
    | i :: is ->
        List.iter
          (fun j ->
            let ri = find i and rj = find j in
            if ri <> rj then parent.(ri) <- rj)
          is
  in
  List.iter join eq_vars;
  List.iter join ineq_vars;
  let geqs = Array.make n [] and gineqs = Array.make n [] in
  let collect groups cs vars =
    List.iter2
      (fun c -> function
        | [] -> ()
        | i :: _ ->
            let r = find i in
            groups.(r) <- c :: groups.(r))
      cs vars
  in
  collect geqs eqs eq_vars;
  collect gineqs ineqs ineq_vars;
  { ids; root = Array.init n find; geqs; gineqs }

(** Decide a component; an empty one (no root) holds. *)
let decide_component ~eqs ~ineqs =
  match (eqs, ineqs) with [], [] -> true | _ -> feasible_conn ~eqs ~ineqs

(** Split the constraint system into connected components and decide
    each independently, in the order of their roots — the conjunction
    is infeasible iff some component is. This keeps Fourier–Motzkin
    small on the large contexts produced by join-heavy functions.
    [feasible_conn] is pure and total, so the order in which components
    are decided cannot change the answer; it fixes which components the
    first infeasible one spares. *)
let feasible ~(eqs : lin list) ~(ineqs : lin list) : bool =
  (* constant constraints are decided immediately *)
  (not (constant_contradiction ~eqs ~ineqs))
  &&
  let c = components ~eqs ~ineqs in
  let n = Array.length c.root in
  let rec decide r =
    r >= n
    || decide_component ~eqs:c.geqs.(r) ~ineqs:c.gineqs.(r) && decide (r + 1)
  in
  decide 0

(* ------------------------------------------------------------------ *)
(* Literal interface                                                   *)
(* ------------------------------------------------------------------ *)

type literal =
  | Le0 of lin  (** lin ≤ 0 *)
  | Eq0 of lin  (** lin = 0 *)
  | Ne0 of lin  (** lin ≠ 0 *)

let pp_literal fmt = function
  | Le0 l -> Format.fprintf fmt "%a <= 0" pp_lin l
  | Eq0 l -> Format.fprintf fmt "%a = 0" pp_lin l
  | Ne0 l -> Format.fprintf fmt "%a != 0" pp_lin l

(** Cap on the number of disequalities we case-split on. *)
let diseq_limit = 12

(** Satisfiability of the conjunction of [eqs] (each [= 0]), [ineqs]
    (each [≤ 0]) and [diseqs] (each [≠ 0]); [base ()] decides
    [feasible ~eqs ~ineqs], once at most.

    Disequalities are handled in two steps. First, a cheap relevance
    filter: [l ≠ 0] only constrains the system if [l = 0] is consistent
    with it — otherwise the disequality is automatically satisfied and
    can be dropped (this covers the many negated congruence guards that
    Ackermannization produces). The few surviving "critical"
    disequalities are then case-split into [l ≤ -1 ∨ l ≥ 1]. Should
    more than [diseq_limit] survive, the rest are dropped, which
    over-approximates satisfiability (sound for the validity checker). *)
let sat_parts ~eqs ~ineqs ~diseqs ~(base : unit -> bool) : bool =
  if List.exists (fun l -> lin_is_const l && l.const = 0) diseqs then false
  else begin
    let diseqs = List.filter (fun l -> not (lin_is_const l)) diseqs in
    let le_neg1 d = { d with const = d.const + 1 } (* d ≤ -1 *) in
    let ge_1 d = { (lin_scale (-1) d) with const = 1 - d.const } (* d ≥ 1 *) in
    (* exact case split, pruning infeasible prefixes early *)
    let rec split acc = function
      | [] -> true
      | d :: rest ->
          (let c = le_neg1 d :: acc in
           feasible ~eqs ~ineqs:(c @ ineqs) && split c rest)
          || (let c = ge_1 d :: acc in
              feasible ~eqs ~ineqs:(c @ ineqs) && split c rest)
    in
    match diseqs with
    | [] -> base ()
    | _ when List.length diseqs <= 4 -> base () && split [] diseqs
    | _ ->
        base ()
        && begin
             (* keep only the disequalities whose equality is consistent *)
             let critical =
               List.filter (fun d -> feasible ~eqs:(d :: eqs) ~ineqs) diseqs
             in
             if List.length critical <= diseq_limit then split [] critical
             else
               (* many critical disequalities: refute each independently
                  (over-approximates joint satisfiability, sound) *)
               not
                 (List.exists
                    (fun d ->
                      (not (feasible ~eqs ~ineqs:(le_neg1 d :: ineqs)))
                      && not (feasible ~eqs ~ineqs:(ge_1 d :: ineqs)))
                    critical)
           end
  end

let partition (lits : literal list) =
  ( List.filter_map (function Eq0 l -> Some l | _ -> None) lits,
    List.filter_map (function Le0 l -> Some l | _ -> None) lits,
    List.filter_map (function Ne0 l -> Some l | _ -> None) lits )

(** Satisfiability of a conjunction of literals. *)
let sat_literals (lits : literal list) : bool =
  let eqs, ineqs, diseqs = partition lits in
  sat_parts ~eqs ~ineqs ~diseqs ~base:(fun () -> feasible ~eqs ~ineqs)

(* ------------------------------------------------------------------ *)
(* A conjunction prepared for one more literal                         *)
(* ------------------------------------------------------------------ *)

(* Prepared weakening hypotheses add to peak memory, so the split is
   kept flat: each constraint's component root, and each variable's, in
   arrays; the component lists are rebuilt per query. *)
type context = {
  c_eqs : lin array;  (** input order *)
  c_eq_roots : int array;  (** each equality's root; [-1] for a constant *)
  c_ineqs : lin array;
  c_ineq_roots : int array;
  c_diseqs : lin list;
  c_bad : bool;  (** a constant equality or inequality is false *)
  c_vars : string array;  (** sorted *)
  c_var_roots : int array;  (** each variable's root *)
  c_roots : int array;  (** the components' roots, ascending *)
}

let context (lits : literal list) : context =
  let eqs, ineqs, diseqs = partition lits in
  let c = components ~eqs ~ineqs in
  let root_of l =
    match SMap.max_binding_opt l.coeffs with
    | None -> -1
    | Some (x, _) -> c.root.(Hashtbl.find c.ids x)
  in
  let vars = Hashtbl.fold (fun x i acc -> (x, c.root.(i)) :: acc) c.ids [] in
  let vars = Array.of_list (List.sort (fun (x, _) (y, _) -> String.compare x y) vars) in
  let roots = ref [] in
  for r = Array.length c.root - 1 downto 0 do
    if c.geqs.(r) <> [] || c.gineqs.(r) <> [] then roots := r :: !roots
  done;
  {
    c_eqs = Array.of_list eqs;
    c_eq_roots = Array.of_list (List.map root_of eqs);
    c_ineqs = Array.of_list ineqs;
    c_ineq_roots = Array.of_list (List.map root_of ineqs);
    c_diseqs = diseqs;
    c_bad = constant_contradiction ~eqs ~ineqs;
    c_vars = Array.map fst vars;
    c_var_roots = Array.map snd vars;
    c_roots = Array.of_list !roots;
  }

(** The root of variable [x]'s component, if [x] occurs. *)
let var_root c x =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let o = String.compare x c.c_vars.(mid) in
      if o = 0 then Some c.c_var_roots.(mid)
      else if o < 0 then search lo mid
      else search (mid + 1) hi
  in
  search 0 (Array.length c.c_vars)

(** [feasible] on the context's equalities and its inequalities followed
    by [g] ([None]: by nothing), from the context's split. [g] comes
    last, so its new variables are numbered last and its join comes
    last: the components it shares no variable with are unchanged, and
    the ones it touches merge into one, rooted where the union-find
    would root it and listing its constraints in the same order. *)
let feasible_after (c : context) (g : lin option) : bool =
  let n = Array.length c.c_var_roots in
  (* the components [g]'s variables belong to, in key order; a new
     variable is a component of its own, rooted at its new number *)
  let fresh = ref n in
  let sets =
    match g with
    | None -> []
    | Some g ->
        SMap.fold
          (fun x _ acc ->
            match var_root c x with
            | Some r -> r :: acc
            | None ->
                let r = !fresh in
                incr fresh;
                r :: acc)
          g.coeffs []
  in
  (* [sets] is in join order: the first variable joins each later one,
     and the merged component keeps the root of the last to join *)
  let merged =
    List.fold_left (fun acc r -> if List.mem r acc then acc else r :: acc) [] sets
  in
  let mroot = match merged with r :: _ -> r | [] -> -1 in
  (* slot [n] holds a merged component rooted at a new variable *)
  let slot r = if List.mem r merged then min mroot n else r in
  let geqs = Array.make (n + 1) [] and gineqs = Array.make (n + 1) [] in
  let collect groups cs roots =
    Array.iteri
      (fun i l ->
        let r = roots.(i) in
        if r >= 0 then
          let s = slot r in
          groups.(s) <- l :: groups.(s))
      cs
  in
  collect geqs c.c_eqs c.c_eq_roots;
  collect gineqs c.c_ineqs c.c_ineq_roots;
  Option.iter (fun g -> gineqs.(min mroot n) <- g :: gineqs.(min mroot n)) g;
  let decide s = decide_component ~eqs:geqs.(s) ~ineqs:gineqs.(s) in
  let rec go i merged_done =
    if i >= Array.length c.c_roots then merged_done || decide (min mroot n)
    else
      let r = c.c_roots.(i) in
      if List.mem r merged then go (i + 1) merged_done
      else if (not merged_done) && mroot < r then
        decide (min mroot n) && go i true
      else decide r && go (i + 1) merged_done
  in
  go 0 (merged = [])

let sat_with (c : context) (extra : literal option) : bool =
  let split g () = (not c.c_bad) && feasible_after c g in
  let lists () = (Array.to_list c.c_eqs, Array.to_list c.c_ineqs) in
  match extra with
  | Some (Eq0 g) ->
      (* a new equality is numbered before the inequalities: split anew *)
      let eqs, ineqs = lists () in
      let eqs = eqs @ [ g ] in
      sat_parts ~eqs ~ineqs ~diseqs:c.c_diseqs ~base:(fun () ->
          feasible ~eqs ~ineqs)
  | None | Some (Le0 _ | Ne0 _) -> (
      let diseqs =
        match extra with Some (Ne0 d) -> c.c_diseqs @ [ d ] | _ -> c.c_diseqs
      in
      let base =
        match extra with
        | Some (Le0 g) when lin_is_const g ->
            if g.const > 0 then fun () -> false else split None
        | Some (Le0 g) -> split (Some g)
        | _ -> split None
      in
      match diseqs with
      | [] -> base ()
      | _ ->
          let eqs, ineqs = lists () in
          let ineqs =
            match extra with Some (Le0 g) -> ineqs @ [ g ] | _ -> ineqs
          in
          sat_parts ~eqs ~ineqs ~diseqs ~base)
