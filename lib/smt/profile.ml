(** Unified performance counters and timers for the whole verification
    stack (SMT solver, fixpoint solver, Flux checker, WP baseline).

    Every metric is a named cell holding a count and an accumulated
    wall-clock time. Cells are recorded twice: once in a global group
    (totals for the current run) and once under the enclosing function
    scope established by {!with_fn}, so per-function solver costs are
    attributable ("which function burned the weaken checks?"). A
    counter bump is a hashtable lookup plus an integer increment, cheap
    enough to leave on unconditionally.

    All state is domain-local ({!Domain.DLS}): every domain accumulates
    into its own profile, and the parallel engine merges worker
    profiles back into the coordinating domain with {!capture} /
    {!absorb}. Cells remember whether they were ever fed wall-clock
    time ([timed]); timed metrics always serialize as float seconds,
    even when the accumulated time is exactly 0.0, so JSON consumers
    can rely on [_s]-suffixed keys being seconds and bare keys being
    counts.

    The whole profile converts to a JSON value ({!to_json}) — this is what
    [bench/main.exe table1] embeds in [BENCH_table1.json] so the perf
    trajectory is tracked across PRs. *)

type cell = { mutable count : int; mutable time : float; mutable timed : bool }
type group = (string, cell) Hashtbl.t

type state = {
  global : group;
  per_fn : (string, group) Hashtbl.t;
  mutable current_fn : string option;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { global = Hashtbl.create 64; per_fn = Hashtbl.create 64; current_fn = None })

let state () = Domain.DLS.get dls

let reset () =
  let st = state () in
  Hashtbl.reset st.global;
  Hashtbl.reset st.per_fn;
  st.current_fn <- None

let cell_of (g : group) key =
  match Hashtbl.find_opt g key with
  | Some c -> c
  | None ->
      let c = { count = 0; time = 0.0; timed = false } in
      Hashtbl.add g key c;
      c

let touch key f =
  let st = state () in
  f (cell_of st.global key);
  match st.current_fn with
  | None -> ()
  | Some fn ->
      let g =
        match Hashtbl.find_opt st.per_fn fn with
        | Some g -> g
        | None ->
            let g = Hashtbl.create 16 in
            Hashtbl.add st.per_fn fn g;
            g
      in
      f (cell_of g key)

(** [incr key]: bump counter [key] by one. *)
let incr key = touch key (fun c -> c.count <- c.count + 1)

(** [add key n]: bump counter [key] by [n]. *)
let add key n = if n <> 0 then touch key (fun c -> c.count <- c.count + n)

(** [add_time key dt]: record [dt] seconds (and one occurrence). The
    cell is marked as a timer even when [dt] is 0.0. *)
let add_time key dt =
  touch key (fun c ->
      c.time <- c.time +. dt;
      c.count <- c.count + 1;
      c.timed <- true)

(** [time key f]: run [f ()], charging its wall-clock time to [key]. *)
let time key f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add_time key (Unix.gettimeofday () -. t0)) f

(** [with_fn name f]: run [f ()] with metrics additionally attributed
    to function scope [name]. Nesting restores the outer scope. *)
let with_fn name f =
  let st = state () in
  let saved = st.current_fn in
  st.current_fn <- Some name;
  Fun.protect ~finally:(fun () -> st.current_fn <- saved) f

(* ------------------------------------------------------------------ *)
(* Snapshots, cross-domain merging, and JSON                           *)
(* ------------------------------------------------------------------ *)

let snapshot_group (g : group) : (string * (int * float * bool)) list =
  Hashtbl.fold (fun k c acc -> (k, (c.count, c.time, c.timed)) :: acc) g []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Global metrics, sorted by name:
    [(key, (count, seconds, is_timer))]. *)
let snapshot () = snapshot_group (state ()).global

type captured = {
  cap_global : (string * (int * float * bool)) list;
  cap_fns : (string * (string * (int * float * bool)) list) list;
}
(** An immutable copy of one domain's profile, safe to ship across
    domains (plain lists of scalars, no shared mutable cells). *)

(** [capture ()]: snapshot the calling domain's entire profile. *)
let capture () : captured =
  let st = state () in
  {
    cap_global = snapshot_group st.global;
    cap_fns =
      Hashtbl.fold (fun k g acc -> (k, snapshot_group g) :: acc) st.per_fn []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let absorb_group (g : group) entries =
  List.iter
    (fun (k, (n, t, timed)) ->
      let c = cell_of g k in
      c.count <- c.count + n;
      c.time <- c.time +. t;
      c.timed <- c.timed || timed)
    entries

(** [absorb cap]: merge a captured profile (typically from a worker
    domain) into the calling domain's profile, cell by cell. *)
let absorb (cap : captured) =
  let st = state () in
  absorb_group st.global cap.cap_global;
  List.iter
    (fun (fn, entries) ->
      let g =
        match Hashtbl.find_opt st.per_fn fn with
        | Some g -> g
        | None ->
            let g = Hashtbl.create 16 in
            Hashtbl.add st.per_fn fn g;
            g
      in
      absorb_group g entries)
    cap.cap_fns

module Json = Flux_json.Json

let json_of_entries entries : Json.t =
  Json.Obj
    (List.map
       (fun (k, (n, t, timed)) -> (k, if timed then Json.Float t else Json.Int n))
       entries)

(** The full profile as a JSON value: counter metrics are integer
    counts, timed metrics accumulated float seconds (a timer that never
    accumulated time is still [Float 0.0], never its count; a
    non-finite one prints as [null]).
    [{"totals": {metric: value, ...},
      "functions": {fn: {metric: value, ...}, ...}}] *)
let to_json () : Json.t =
  let cap = capture () in
  Json.Obj
    [
      ("totals", json_of_entries cap.cap_global);
      ( "functions",
        Json.Obj (List.map (fun (fn, es) -> (fn, json_of_entries es)) cap.cap_fns) );
    ]
