(** A fixed-size pool of OCaml 5 domains draining an array of
    independent tasks.

    Tasks are claimed off a shared atomic counter in array order, so
    callers control scheduling priority by ordering the array (the
    engine submits largest-estimated tasks first, LPT-style). Results
    come back positionally: [run tasks] returns an array where slot
    [i] holds the result of [tasks.(i)] no matter which domain ran it
    or when it finished. *)

let default_jobs () = Domain.recommended_domain_count ()

exception Cancelled
(** Raised by {!run} when its [cancel] callback reports [true]: the
    remaining tasks are abandoned at the next task boundary (an
    in-flight task always runs to completion — cancellation is
    task-granular, never mid-task) and the partial results are
    discarded. *)

type 'a outcome = Done of 'a | Failed of exn * Printexc.raw_backtrace

(** [run_spawning ~spawn ~jobs tasks]: execute every task and return
    the results in task order, starting each worker domain with
    [spawn] ({!run} passes {!Domain.spawn}; a test passes one that
    fails). A failed spawn is not an error: the tasks run on the
    domains that did start. [jobs <= 0] selects {!default_jobs};
    [jobs <= 1] (or a single task) runs inline on the calling domain,
    so sequential mode has no domain overhead and shares the caller's
    domain-local state.
    Requested jobs are clamped to the physical core count: verification
    is CPU-bound and the minor GC is a stop-the-world barrier across
    all domains, so domains beyond cores only add synchronization
    stalls (measured ~1.4-2x slowdown when oversubscribed). [jobs < 0]
    bypasses the clamp and forces exactly [-jobs] domains — only for
    tests that must exercise true multi-domain runs on small machines.
    If tasks raised, the first failure in {e task order} is re-raised
    (identically for sequential and parallel runs).

    [cancel] is polled before every task claim — on the calling domain
    when sequential (or draining beside too few workers), on each
    worker domain when parallel, so it must be safe to call
    concurrently (the daemon's deadline/disconnect checks are plain
    syscalls). Once it reports [true], {!Cancelled} is raised
    after the in-flight tasks finish. *)
let run_spawning (type a) ~(spawn : (unit -> unit) -> unit Domain.t)
    ?(cancel = fun () -> false) ~(jobs : int) (tasks : (unit -> a) array) :
    a array =
  let n = Array.length tasks in
  let results : a outcome option array = Array.make n None in
  let exec i =
    results.(i) <-
      Some
        (try Done (tasks.(i) ())
         with e -> Failed (e, Printexc.get_raw_backtrace ()))
  in
  let jobs =
    if jobs < 0 then -jobs
    else min (if jobs = 0 then default_jobs () else jobs) (default_jobs ())
  in
  (if jobs <= 1 || n <= 1 then
     for i = 0 to n - 1 do
       if cancel () then raise Cancelled;
       exec i
     done
   else begin
     let next = Atomic.make 0 in
     let stop = Atomic.make false in
     let worker () =
       let rec loop () =
         if Atomic.get stop then ()
         else if cancel () then Atomic.set stop true
         else begin
           let i = Atomic.fetch_and_add next 1 in
           if i < n then begin
             exec i;
             loop ()
           end
         end
       in
       loop ()
     in
     (* Workers catch everything, so [Domain.join] never re-raises;
        failures are reported positionally below instead. A spawn can
        fail when the runtime's domain table is full (every fluxd
        session spawns its own workers): spawning stops there, the
        calling domain drains the queue beside the workers that did
        start, and every one of them is joined before returning. *)
     let rec start k doms =
       if k = 0 then (doms, true)
       else
         match spawn worker with
         | d -> start (k - 1) (d :: doms)
         | exception _ -> (doms, false)
     in
     let doms, all_started = start (min jobs n) [] in
     if not all_started then worker ();
     List.iter Domain.join doms;
     if Atomic.get stop then raise Cancelled
   end);
  Array.init n (fun i ->
      match results.(i) with
      | Some (Done r) -> r
      | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)

(** [run_spawning] with the runtime's own {!Domain.spawn}. *)
let run ?cancel ~jobs tasks =
  run_spawning ~spawn:Domain.spawn ?cancel ~jobs tasks
