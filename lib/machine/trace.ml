type note = ..
type note += Label of string

type mem_event = {
  seq : int;
  pid : int;
  addr : int;
  prim : Primitive.t;
  resp : Value.t;
  changed : bool;
}

type entry = Mem of mem_event | Note of { seq : int; pid : int; note : note }

type sink = Off | Ring of int | Full

(* Array-backed sink. [buf] is flat storage for [Full] (grow-on-demand,
   [start] pinned at 0) and a circular buffer for [Ring n] ([start] is the
   oldest stored entry). [total] is the global sequence counter: it advances
   on every recorded event, including ones an [Off] or saturated [Ring] sink
   does not retain, so seq numbers are schedule positions regardless of the
   sink. *)
type t = {
  sink : sink;
  mutable buf : entry array;
  mutable start : int;
  mutable stored : int;
  mutable total : int;
  mutable observer : (entry -> unit) option;
      (* called on every note entry, even under an [Off] sink — the hook an
         online monitor (e.g. the streaming opacity checker) attaches to *)
}

let create ?(sink = Full) () =
  (match sink with
  | Ring n when n <= 0 ->
      invalid_arg "Trace.create: ring capacity must be positive"
  | _ -> ());
  { sink; buf = [||]; start = 0; stored = 0; total = 0; observer = None }

let set_observer t f = t.observer <- f

let sink t = t.sink
let recording t = t.sink <> Off

(* Count an event the machine elided recording for (Off sink fast path). *)
let tick t = t.total <- t.total + 1

let push t e =
  (match t.sink with
  | Off -> ()
  | Full ->
      let cap = Array.length t.buf in
      if t.stored >= cap then begin
        let fresh = Array.make (max 64 (2 * cap)) e in
        Array.blit t.buf 0 fresh 0 t.stored;
        t.buf <- fresh
      end;
      t.buf.(t.stored) <- e;
      t.stored <- t.stored + 1
  | Ring n ->
      if Array.length t.buf = 0 then t.buf <- Array.make n e;
      if t.stored < n then begin
        t.buf.((t.start + t.stored) mod n) <- e;
        t.stored <- t.stored + 1
      end
      else begin
        t.buf.(t.start) <- e;
        t.start <- (t.start + 1) mod n
      end);
  t.total <- t.total + 1

let add_mem t ~pid ~addr prim resp changed =
  match t.sink with
  | Off -> tick t
  | _ -> push t (Mem { seq = t.total; pid; addr; prim; resp; changed })

let add_note t ~pid note =
  match t.observer with
  | None -> (
      match t.sink with
      | Off -> tick t
      | _ -> push t (Note { seq = t.total; pid; note }))
  | Some f ->
      let e = Note { seq = t.total; pid; note } in
      (match t.sink with Off -> tick t | _ -> push t e);
      f e

(* Return to the post-create state in place, keeping [buf] allocated so a
   pooled machine's next run reuses the storage. *)
let clear t =
  t.start <- 0;
  t.stored <- 0;
  t.total <- 0

(* Every retained entry sits at index [seq mod n] of a [Ring n] (the ring
   starts empty at 0 and overwrites its oldest slot), so dropping the
   entries from [n'] on leaves the retained ones below [n'] in place: no
   entry moves, only the bounds do. *)
let rewind t n' =
  if n' < 0 || n' > t.total then invalid_arg "Trace.rewind";
  let first = min n' (t.total - t.stored) in
  t.stored <- n' - first;
  t.total <- n';
  match t.sink with Ring cap -> t.start <- first mod cap | Off | Full -> ()

let length t = t.total
let stored t = t.stored
let first_seq t = t.total - t.stored

let get_stored t i = t.buf.((t.start + i) mod Array.length t.buf)

let get t seq =
  let first = first_seq t in
  if seq < first || seq >= t.total then
    invalid_arg "Trace.get: seq not retained by this sink";
  get_stored t (seq - first)

let iter t f =
  for i = 0 to t.stored - 1 do
    f (get_stored t i)
  done

let iter_from t seq f =
  let i0 = max 0 (seq - first_seq t) in
  for i = i0 to t.stored - 1 do
    f (get_stored t i)
  done

let entries t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get_stored t i :: acc) in
  go (t.stored - 1) []

let mem_events t =
  let rec go i acc =
    if i < 0 then acc
    else
      match get_stored t i with
      | Mem e -> go (i - 1) (e :: acc)
      | Note _ -> go (i - 1) acc
  in
  go (t.stored - 1) []

let pp_note_default ppf = function
  | Label s -> Fmt.pf ppf "label %S" s
  | _ -> Fmt.pf ppf "<note>"

let pp_entry ~pp_note ppf = function
  | Mem { seq; pid; addr; prim; resp; changed } ->
      Fmt.pf ppf "%4d p%d  b%d %a -> %a%s" seq pid addr Primitive.pp prim
        Value.pp resp
        (if changed then " *" else "")
  | Note { seq; pid; note } -> Fmt.pf ppf "%4d p%d  %a" seq pid pp_note note
