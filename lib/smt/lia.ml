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
    inequalities. *)

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

let choose_var (cs : lin list) : string option =
  (* Pick the variable minimizing (#positive × #negative) occurrences to
     keep the FM blowup small. *)
  let tally = Hashtbl.create 16 in
  List.iter
    (fun c ->
      SMap.iter
        (fun x k ->
          let p, n = try Hashtbl.find tally x with Not_found -> (0, 0) in
          if k > 0 then Hashtbl.replace tally x (p + 1, n)
          else Hashtbl.replace tally x (p, n + 1))
        c.coeffs)
    cs;
  Hashtbl.fold
    (fun x (p, n) best ->
      let cost = p * n in
      match best with
      | Some (_, bcost) when bcost <= cost -> best
      | _ -> Some (x, cost))
    tally None
  |> Option.map fst

(** Decide feasibility (over the rationals, with integer tightening) of
    the conjunction of [ineqs] (each [≤ 0]) and [eqs] (each [= 0]).
    Returns [false] only if definitely infeasible over the integers. *)
let feasible_conn ~(eqs : lin list) ~(ineqs : lin list) : bool =
  try
    (* Phase 1: eliminate equalities. *)
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
    in
    let ineqs = elim_eqs eqs ineqs in
    (* Phase 2: FM elimination. *)
    let rec fm (cs : lin list) =
      let cs = List.filter_map tighten cs in
      if List.length cs > fm_limit then true (* give up: maybe SAT *)
      else
        match choose_var cs with
        | None -> true (* only constants left, all satisfied *)
        | Some x ->
            let pos, neg, rest =
              List.fold_left
                (fun (p, n, r) c ->
                  match SMap.find_opt x c.coeffs with
                  | Some k when k > 0 -> (c :: p, n, r)
                  | Some _ -> (p, c :: n, r)
                  | None -> (p, n, c :: r))
                ([], [], []) cs
            in
            let combined =
              List.concat_map
                (fun cp ->
                  let a = SMap.find x cp.coeffs in
                  List.map
                    (fun cn ->
                      let b = -SMap.find x cn.coeffs in
                      (* b·cp + a·cn eliminates x (a>0, b>0). *)
                      lin_add (lin_scale b cp) (lin_scale a cn))
                    neg)
                pos
            in
            fm (combined @ rest)
    in
    fm ineqs
  with Infeasible -> false

(** Split the constraint system into connected components (constraints
    linked by shared variables) and decide each independently — the
    conjunction is infeasible iff some component is. This keeps
    Fourier–Motzkin small on the large contexts produced by join-heavy
    functions.

    Variables are numbered densely once per call and joined in an
    array union-find; each component lists its equalities and its
    inequalities in reverse input order. [feasible_conn] is pure and
    total, so the order in which components are decided cannot change
    the answer. *)
let feasible ~(eqs : lin list) ~(ineqs : lin list) : bool =
  (* constant constraints are decided immediately *)
  if
    List.exists (fun c -> lin_is_const c && c.const <> 0) eqs
    || List.exists (fun c -> lin_is_const c && c.const > 0) ineqs
  then false
  else begin
    let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let id x =
      match Hashtbl.find_opt ids x with
      | Some i -> i
      | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids x i;
          i
    in
    let var_ids c = SMap.fold (fun x _ acc -> id x :: acc) c.coeffs [] in
    let eq_vars = List.map var_ids eqs in
    let ineq_vars = List.map var_ids ineqs in
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
    let rec decide r =
      r >= n
      || (match (geqs.(r), gineqs.(r)) with
         | [], [] -> true
         | eqs, ineqs -> feasible_conn ~eqs ~ineqs)
         && decide (r + 1)
    in
    decide 0
  end

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

(** Satisfiability of a conjunction of literals.

    Disequalities are handled in two steps. First, a cheap relevance
    filter: [l ≠ 0] only constrains the system if [l = 0] is consistent
    with it — otherwise the disequality is automatically satisfied and
    can be dropped (this covers the many negated congruence guards that
    Ackermannization produces). The few surviving "critical"
    disequalities are then case-split into [l ≤ -1 ∨ l ≥ 1]. Should
    more than [diseq_limit] survive, the rest are dropped, which
    over-approximates satisfiability (sound for the validity checker). *)
let sat_literals (lits : literal list) : bool =
  let eqs = List.filter_map (function Eq0 l -> Some l | _ -> None) lits in
  let ineqs = List.filter_map (function Le0 l -> Some l | _ -> None) lits in
  let diseqs = List.filter_map (function Ne0 l -> Some l | _ -> None) lits in
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
    | [] -> feasible ~eqs ~ineqs
    | _ when List.length diseqs <= 4 ->
        feasible ~eqs ~ineqs && split [] diseqs
    | _ ->
        feasible ~eqs ~ineqs
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

