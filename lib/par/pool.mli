(** A small domain pool for parallel scan partitions.

    The pool's only job is deterministic fan-out/join: [run_tasks] takes
    [n] independent task thunks, executes them on up to [workers]
    domains (the calling domain included), and returns their results in
    task-index order.  Exceptions are captured per task; after the join
    the exception of the {e lowest-indexed} failing task is re-raised on
    the caller's domain, so a parallel query fails with exactly one
    structured error — the same one a sequential run would have hit
    first.

    The pool holds no configuration: each call says how wide it may go
    (the executor passes the width its statement compiled with).  With
    one worker (or one task) everything runs inline on the calling
    domain — no domains are spawned, making [workers = 1] literally the
    sequential engine. *)

val run_tasks : workers:int -> int -> (int -> 'a) -> 'a array
(** [run_tasks ~workers n task] evaluates [task i] for [0 <= i < n] on
    at most [workers] domains and returns the results indexed by [i].
    Re-raises the first failing task's exception (by task index) after
    all tasks finished. *)
