type request = { addr : Memory.addr; prim : Primitive.t }

type _ Effect.t +=
  | Apply : request -> Value.t Effect.t
  | Note : Trace.note -> unit Effect.t
  | Pause : unit Effect.t

type outcome =
  | Done
  | Failed of exn
  | Wants_mem of request * (Value.t -> outcome)
  | Wants_note of Trace.note * (unit -> outcome)
  | Wants_pause of (unit -> outcome)

(* The effect that [effc] just intercepted: the runtime calls the case that
   [effc] returns at once, so each case reads its payload from here, and the
   three cases are built once per process instead of once per effect. *)
type caught = { mutable req : request; mutable note : Trace.note }

let start f =
  let c =
    { req = { addr = 0; prim = Primitive.Read }; note = Trace.Label "" }
  in
  let on_apply =
    Some
      (fun (k : (Value.t, outcome) Effect.Deep.continuation) ->
        Wants_mem (c.req, fun v -> Effect.Deep.continue k v))
  and on_note =
    Some
      (fun (k : (unit, outcome) Effect.Deep.continuation) ->
        Wants_note (c.note, fun () -> Effect.Deep.continue k ()))
  and on_pause =
    Some
      (fun (k : (unit, outcome) Effect.Deep.continuation) ->
        Wants_pause (fun () -> Effect.Deep.continue k ()))
  in
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Done);
      exnc = (fun e -> Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, outcome) Effect.Deep.continuation -> outcome) option ->
          match eff with
          | Apply req ->
              c.req <- req;
              on_apply
          | Note n ->
              c.note <- n;
              on_note
          | Pause -> on_pause
          | _ -> None);
    }

let apply addr prim = Effect.perform (Apply { addr; prim })
let note n = Effect.perform (Note n)
let pause () = Effect.perform Pause
let read a = apply a Primitive.Read
let read_int a = Value.to_int (read a)
let read_bool a = Value.to_bool (read a)
let write a v = ignore (apply a (Primitive.Write v))

let cas a ~expected ~desired =
  Value.to_bool (apply a (Primitive.Cas { expected; desired }))

let tas a = Value.to_bool (apply a Primitive.Tas)
let faa a k = Value.to_int (apply a (Primitive.Faa k))
let fas a v = apply a (Primitive.Fas v)
let ll a = apply a Primitive.Ll
let sc a v = Value.to_bool (apply a (Primitive.Sc v))

module type S = sig
  type 'a t
  type 'a var

  val var : 'a -> 'a var
  val get : 'a var -> 'a
  val set : 'a var -> 'a -> unit
  val return : 'a -> 'a t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val map : ('a -> 'b) -> 'a t -> 'b t
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val suspend : (unit -> 'a t) -> 'a t
  val apply : Memory.addr -> Primitive.t -> Value.t t
  val note : Trace.note -> unit t
  val pause : unit -> unit t
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
  val iter : ('a -> unit t) -> 'a list -> unit t
  val for_all : ('a -> bool t) -> 'a list -> bool t
end

(* The direct instance: a program is the value it delivers, so the shared
   text runs as plain code inside a fiber and each primitive is one
   performed effect. *)
module Direct = struct
  type 'a t = 'a
  type 'a var = 'a ref

  let var = ref
  let get = ( ! )
  let set = ( := )
  let return x = x
  let bind x f = f x
  let map f x = f x
  let ( let* ) x f = f x
  let suspend f = f ()
  let apply = apply
  let note = note
  let pause = pause
  let read = read
  let read_int = read_int
  let read_bool = read_bool
  let write = write
  let cas = cas
  let tas = tas
  let faa = faa
  let fas = fas
  let ll = ll
  let sc = sc
  let iter = List.iter
  let for_all = List.for_all
end

(* ------------------------------------------------------------------ *)
(* Defunctionalized step machines.                                     *)
(*                                                                     *)
(* A [Step] process is an explicit value: running it one step applies  *)
(* an ordinary OCaml closure to the pending response, no fiber switch  *)
(* involved. It parks on the same [outcome] as a fiber, so the machine *)
(* treats either engine through one case analysis.                     *)
(* ------------------------------------------------------------------ *)

(* The undo trail behind step-instance vars: while a search has it on,
   every [Step.set] first logs the var and its previous value, so a saved
   node's host state is recovered by undoing the entries logged since the
   node's mark, newest first. One trail per domain: a frontier search runs
   one worker per domain, each over its own machines. *)
type undo = Undo : 'a ref * 'a -> undo

type trail = {
  mutable on : bool;
  mutable log : undo array;
  mutable len : int;
}

let no_undo = Undo (ref (), ())

let trail_key =
  Domain.DLS.new_key (fun () -> { on = false; log = [||]; len = 0 })

let trail () = Domain.DLS.get trail_key

let trail_push tr (c : 'a ref) =
  if tr.len >= Array.length tr.log then begin
    let fresh = Array.make (max 64 (2 * tr.len)) no_undo in
    Array.blit tr.log 0 fresh 0 tr.len;
    tr.log <- fresh
  end;
  Array.unsafe_set tr.log tr.len (Undo (c, !c));
  tr.len <- tr.len + 1

module Trail = struct
  let active () = (trail ()).on
  let length () = (trail ()).len

  let start () =
    let tr = trail () in
    if tr.len > 0 then invalid_arg "Proc.Trail.start: the trail is not empty";
    tr.on <- true

  let stop () =
    let tr = trail () in
    tr.on <- false;
    tr.log <- [||];
    tr.len <- 0

  let undo_to mark =
    let tr = trail () in
    if mark < 0 || mark > tr.len then invalid_arg "Proc.Trail.undo_to";
    for i = tr.len - 1 downto mark do
      let (Undo (c, old)) = Array.unsafe_get tr.log i in
      c := old;
      Array.unsafe_set tr.log i no_undo
    done;
    tr.len <- mark
end

module Step = struct
  type 'a t = ('a -> outcome) -> outcome
  type 'a var = 'a ref

  let var = ref
  let get = ( ! )

  let set c x =
    let tr = trail () in
    if tr.on then trail_push tr c;
    c := x

  let return x k = k x
  let bind m f k = m (fun x -> f x k)
  let map f m k = m (fun x -> k (f x))
  let ( let* ) = bind
  let suspend f k = f () k
  let apply addr prim k = Wants_mem ({ addr; prim }, k)
  let note n k = Wants_note (n, k)
  let pause () k = Wants_pause k
  let read a k = Wants_mem ({ addr = a; prim = Primitive.Read }, k)
  let read_int a k =
    Wants_mem ({ addr = a; prim = Primitive.Read }, fun v -> k (Value.to_int v))
  let read_bool a k =
    Wants_mem
      ({ addr = a; prim = Primitive.Read }, fun v -> k (Value.to_bool v))
  let write a v k =
    Wants_mem ({ addr = a; prim = Primitive.Write v }, fun _ -> k ())
  let cas a ~expected ~desired k =
    Wants_mem
      ( { addr = a; prim = Primitive.Cas { expected; desired } },
        fun v -> k (Value.to_bool v) )
  let tas a k =
    Wants_mem ({ addr = a; prim = Primitive.Tas }, fun v -> k (Value.to_bool v))
  let faa a n k =
    Wants_mem
      ({ addr = a; prim = Primitive.Faa n }, fun v -> k (Value.to_int v))
  let fas a v k = Wants_mem ({ addr = a; prim = Primitive.Fas v }, k)
  let ll a k = Wants_mem ({ addr = a; prim = Primitive.Ll }, k)
  let sc a v k =
    Wants_mem ({ addr = a; prim = Primitive.Sc v }, fun r -> k (Value.to_bool r))

  let rec iter f = function
    | [] -> return ()
    | x :: rest -> bind (f x) (fun () -> iter f rest)

  let rec for_all f = function
    | [] -> return true
    | x :: rest -> bind (f x) (fun ok -> if ok then for_all f rest else return false)

  let start (p : unit t) : outcome =
    try p (fun () -> Done) with e -> Failed e
end
