(** Fresh paths in the temporary directory for the tests, removed with
    whatever they hold when the test process exits. Call them from the
    main domain. *)

let owner = Unix.getpid ()
let made = ref []
let counter = ref 0

(** A fresh path [<temp dir>/<prefix>-<pid>-<n><suffix>], not created. *)
let path ?(suffix = "") prefix =
  incr counter;
  let p =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d%s" prefix owner !counter suffix)
  in
  made := p :: !made;
  p

(** Remove [p] and everything under it, making each directory writable
    again first: a test may have taken the permission away. *)
let rec remove p =
  match (Unix.lstat p).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      (try Unix.chmod p 0o755 with Unix.Unix_error _ -> ());
      Array.iter
        (fun f -> remove (Filename.concat p f))
        (try Sys.readdir p with Sys_error _ -> [||]);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

(** A fresh empty directory (emptied if a process of the same pid left
    it behind). *)
let dir prefix =
  let d = path prefix in
  remove d;
  Unix.mkdir d 0o755;
  d

(* a forked child exiting must not remove what its parent still uses *)
let () =
  at_exit (fun () -> if Unix.getpid () = owner then List.iter remove !made)
