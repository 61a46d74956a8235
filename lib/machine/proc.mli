(** Simulated processes as coroutines parked on one outcome type.

    A process interacts with shared memory only through primitive
    applications; every application is one step (one event) of the paper's
    model. Local computation between two primitive applications is free,
    exactly as in the step model of Section 2. A process is written either
    as direct-style code performing the {!Apply} effect, run in a fiber by
    {!start}, or as a {!Step} program; both park on an {!outcome}.

    The scheduler owns the parked process: after a process asks to apply a
    primitive it is {e poised} to apply that event (the paper's "enabled
    event"); the event actually takes effect only when the scheduler next
    steps the process, at which point the primitive is applied to the
    then-current memory and the parked closure is resumed with the
    response. *)

type request = { addr : Memory.addr; prim : Primitive.t }

type _ Effect.t +=
  | Apply : request -> Value.t Effect.t
  | Note : Trace.note -> unit Effect.t
  | Pause : unit Effect.t
        (** a voluntary stopping point: costs no step; used by experiment
            drivers to advance a process one t-operation at a time. *)

(** A parked process. Each [Wants_*] constructor carries the closure that
    resumes the process with the response. For a fiber ({!start}) that
    closure continues a one-shot effect continuation, so it may be called
    once; for a {!Step} program it is the program's own continuation, which
    may be called again from a restored node (see {!S}). A fiber catches
    its own exceptions into [Failed]; a step closure may raise, and the
    machine catches that exception into [Failed] when it resumes one. *)
type outcome =
  | Done
  | Failed of exn
  | Wants_mem of request * (Value.t -> outcome)
  | Wants_note of Trace.note * (unit -> outcome)
  | Wants_pause of (unit -> outcome)

val start : (unit -> unit) -> outcome
(** Run a direct-style process body in a fiber until its first effect (or
    completion); an exception it raises becomes [Failed]. Each [Wants_*]
    closure it parks on continues the fiber's one-shot continuation. *)

(** Effect-performing operations, callable only from inside a process body. *)

val apply : Memory.addr -> Primitive.t -> Value.t
val note : Trace.note -> unit
val pause : unit -> unit

(** Typed convenience wrappers around {!apply}. *)

val read : Memory.addr -> Value.t
val read_int : Memory.addr -> int
val read_bool : Memory.addr -> bool
val write : Memory.addr -> Value.t -> unit
val cas : Memory.addr -> expected:Value.t -> desired:Value.t -> bool
val tas : Memory.addr -> bool
val faa : Memory.addr -> int -> int
val fas : Memory.addr -> Value.t -> Value.t
val ll : Memory.addr -> Value.t
val sc : Memory.addr -> Value.t -> bool

(** The program signature: the one text every TM, the Runner and the
    sharded protocol are written against, as functors over it. Two instances
    run that text:

    - {!Direct}, with [type 'a t = 'a] and [bind x f = f x]: each primitive
      is the effect above, so a program is plain code running inside a
      process of a [Fibers] machine ({!Machine.spawn});
    - {!Step}, with programs as explicit continuation-passing values that
      a [Steps] machine advances by ordinary function calls
      ({!Machine.spawn_step}).

    Each engine runs one form, so comparing the engines on a program
    compares its two instances.

    {b Bind where built.} Under {!Direct} a primitive runs the moment its
    program value is built, whereas under {!Step} it runs when the program
    is bound and resumed. Shared text is therefore correct for both only if
    every program value is bound exactly where it is built: never built
    early and bound later, never bound twice, never built as two arguments
    of one call (OCaml evaluates those right to left). Spin loops must
    recur in tail position of a [bind] continuation, so the direct instance
    runs them in constant stack. Side effects outside a [bind] body or a
    {!S.suspend} thunk run at program-{e construction} time under {!Step},
    and would not replay under {!Machine.restart}: operations that allocate
    or mutate must live inside [suspend]/[bind] bodies.

    {b Host state lives in vars.} A parked step program is a closure the
    explorer resumes once per branch of a node: it saves the node
    ({!Machine.save}), runs one branch, restores the node and resumes the
    same closure again. Machine cells are restored with the node; host
    values are not, unless they are vars. So a program keeps every
    mutable value that it writes after a wait (a primitive, a note or a
    pause) in a {!S.var} or in a machine cell ({!Memory.peek}/{!Memory.poke}).
    A [ref], a mutable field, an array or a [Hashtbl] written after a wait
    would carry one branch's writes into its siblings. A mutable value
    built and filled between two waits and only read afterwards is
    immutable as far as a resumption can tell. Under {!Direct} a var is a
    plain [ref]; under {!Step} its [set] logs the previous value on the
    domain's {!Trail} while a search has the trail on, and a restore
    undoes the entries logged since the node was saved. *)
module type S = sig
  type 'a t
  (** A program delivering an ['a]. *)

  type 'a var
  (** A host cell for state that outlives a wait (see above). *)

  val var : 'a -> 'a var
  val get : 'a var -> 'a

  val set : 'a var -> 'a -> unit
  (** Under {!Step}, while the trail is on, logs the old value first. *)

  val return : 'a -> 'a t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val map : ('a -> 'b) -> 'a t -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t

  val suspend : (unit -> 'a t) -> 'a t
  (** Defer construction (and its side effects) to run time. *)

  val apply : Memory.addr -> Primitive.t -> Value.t t
  val note : Trace.note -> unit t
  val pause : unit -> unit t

  (** Typed convenience wrappers around {!apply}. *)

  val read : Memory.addr -> Value.t t
  val read_int : Memory.addr -> int t
  val read_bool : Memory.addr -> bool t
  val write : Memory.addr -> Value.t -> unit t
  val cas : Memory.addr -> expected:Value.t -> desired:Value.t -> bool t
  val tas : Memory.addr -> bool t
  val faa : Memory.addr -> int -> int t
  val fas : Memory.addr -> Value.t -> Value.t t
  val ll : Memory.addr -> Value.t t
  val sc : Memory.addr -> Value.t -> bool t

  (** List combinators. *)

  val iter : ('a -> unit t) -> 'a list -> unit t
  val for_all : ('a -> bool t) -> 'a list -> bool t
  (** Short-circuits left to right, like [List.for_all]. *)
end

module Direct : S with type 'a t = 'a
(** The direct instance: programs are the values they deliver, and each
    primitive performs its effect when called. Callable only from inside a
    fiber-backed process body. *)

(** The domain-local undo trail behind {!Step} vars. It is off by default,
    and then [Step.set] is a plain store that allocates nothing. The
    schedule explorer turns it on for a worker's search on a restorable
    machine and stops it when the search returns or unwinds. *)
module Trail : sig
  val start : unit -> unit
  (** Log every [Step.set] from now on. Raises [Invalid_argument] if the
      trail still holds entries. *)

  val stop : unit -> unit
  (** Stop logging and drop every entry. *)

  val active : unit -> bool
  val length : unit -> int
  (** Entries logged and not undone: a mark for {!undo_to}. *)

  val undo_to : int -> unit
  (** Undo, newest first, every entry logged since [length ()] was [mark]:
      each var gets back the value it held at the mark. Raises
      [Invalid_argument] if [mark] is negative or above {!length}. *)
end

(** Processes as defunctionalized step machines.

    A [Step.t] program is an explicit state value in continuation-passing
    style: running it yields an {!outcome} whose [Wants_*] closures are the
    program's own continuation, so the scheduler advances the process with
    an ordinary (exception-catching) function call — no fiber switch per
    step. The closures are multi-shot for programs that keep their host
    state in vars: resuming one twice from the same saved node, with the
    trail undone in between, replays the same steps. Only a [Steps] machine
    runs step programs ({!Machine.spawn_step}). *)

module Step : sig
  include S with type 'a t = ('a -> outcome) -> outcome
  (** A program delivering an ['a], as a function of its continuation. *)

  val start : unit t -> outcome
  (** Run a program until its first effect (or completion); an exception
      raised before the first effect becomes [Failed]. *)
end
