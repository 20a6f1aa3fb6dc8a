(** The processes the benchmark starts. Each one is waited for; if the
    benchmark itself stops early, {!kill_all} kills and reaps the rest. *)

let live : int list ref = ref []

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?(stderr = Unix.stderr)
    prog args : int =
  let pid = Unix.create_process prog args stdin stdout stderr in
  live := pid :: !live;
  pid

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

(** The exit code if [pid] has ended, without blocking. *)
let poll pid : int option =
  match waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st ->
      live := List.filter (( <> ) pid) !live;
      Some (code st)

(** Wait for [pid]; kill it once [timeout] seconds have passed. *)
let wait ?(timeout = 30.) pid : int =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match poll pid with
    | Some c -> c
    | None when Unix.gettimeofday () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid [] pid);
        live := List.filter (( <> ) pid) !live;
        128 + 9
    | None ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []
