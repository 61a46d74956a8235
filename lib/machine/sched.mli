(** Deterministic schedulers driving a {!Machine}.

    A schedule decides which process applies its enabled event next. All
    schedulers are deterministic (the random one is seeded), so executions are
    reproducible bit-for-bit. [max_steps] bounds the total number of events
    and guards against non-terminating spins; exceeding it raises
    {!Out_of_steps}. *)

exception Out_of_steps

val round_robin : ?max_steps:int -> Machine.t -> unit
(** Step runnable processes in cyclic pid order until all terminate.
    Pauses are transparent (consumed without counting as events). *)

val random : seed:int -> ?max_steps:int -> Machine.t -> unit
(** Step a uniformly random runnable process each time, from a private seeded
    PRNG, until all terminate. *)

val script : Machine.t -> Machine.pid list -> unit
(** Step exactly the given pids in order. Raises [Invalid_argument] if a
    scripted pid is not runnable. Pauses count as a scripted step. *)

val solo : ?max_steps:int -> Machine.t -> Machine.pid -> [ `Done | `Paused ]
(** Run a single process step-contention-free until it pauses or terminates —
    the paper's step contention-free execution fragment. *)
