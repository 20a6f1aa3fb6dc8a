(** Logical qualifiers — the quantifier-free templates from which the
    liquid solver assembles κ solutions (Rondon et al. 2008). *)

open Flux_smt

type t = {
  qname : string;
  qvv : string * Sort.t;  (** the distinguished value parameter *)
  qwild : (string * Sort.t) list;  (** wildcard parameters *)
  qbody : Term.t;
}

val make :
  ?name:string ->
  vv:string * Sort.t ->
  wild:(string * Sort.t) list ->
  Term.t ->
  t

val pp : Format.formatter -> t -> unit

val default : t list
(** The default qualifier set: order/equality comparisons of the value
    against a variable or small constant, off-by-one variants, halving
    and two-variable-sum patterns, and boolean-iff templates. *)

val multi_wildcard_scope_limit : int
(** Multi-wildcard qualifiers are skipped for κs whose scope exceeds
    this bound (9) — their quadratic instantiation only pays
    off in small scopes. *)

val instantiate : t -> (string * Sort.t) list -> Term.t list
(** Instantiate one qualifier for a κ with the given formals (the first
    formal plays the [v] role; wildcards range over the rest plus small
    constants). *)

val instantiate_all :
  ?values:int -> t list -> (string * Sort.t) list -> Term.t list
(** Instantiate a whole set for a κ whose first [values] formals are
    value positions (each takes a turn as [v]); deduplicated. *)
