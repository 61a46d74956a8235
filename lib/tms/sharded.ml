open Ptm_machine

(* Sharded multi-TM: N independent inner TM instances keyed by object hash
   (shard of object [x] is [x mod shards]; its index inside the shard is
   [x / shards]), glued together by a two-phase protocol kept entirely at
   this layer, over one versioned lock word W_s per shard:

   - W_s holds a version, bumped once per publication to the shard, and a
     state: free, held to publish (by a commit writing the shard) or held
     to validate (by a commit freezing a shard it only read);
   - t-reads never touch a long-lived inner transaction: each uncached read
     is a one-shot {e mini-transaction} against its shard (fresh / read /
     try_commit), sampled inside a stable window — W_s read before and
     after, neither held to publish, both at one version — so a value torn
     by an in-flight publication is never returned. A window may pass a
     hold to validate, which changes no data;
   - t-writes are buffered locally; nothing is visible before try_commit;
   - reads are value-validated, NOrec-style: once a touched shard's word
     leaves the version last validated or is held to publish, the cached
     reads of every moved shard are re-sampled; a changed value aborts;
   - try_commit of an updating transaction holds every touched shard,
     written or read, in ascending order (deadlock-free), each by a CAS
     from the version it last validated. Versions only grow and a free
     word has no publication in flight, so a CAS that lands both locks the
     shard and proves its cached reads current; only a shard whose CAS
     fails is waited for, and re-read with bare mini-reads if its version
     moved. It then publishes each written shard's writes as a fresh
     write-only inner transaction (retried until the inner TM accepts it)
     and, after the last, releases each shard with one write: a written
     shard at the next version, a read one at its own.

   A read-only commit costs zero shared-memory events (the cache was
   validated at the last read), and a transaction touching one shard holds
   only that shard's word. With [shards = 1] every operation passes
   straight through to the single inner instance, event for event.

   A crash while holding a word starves later writers of that shard (and
   its readers, when held to publish) but can never expose a torn
   cross-shard commit: a commit holds all its shards from before its first
   publication until after its last, so a reader that sees one shard's new
   state finds every other written shard of that commit held to publish or
   at a new version. Safety survives crash-under-load; liveness does not —
   the same trade every lock-based TM in the registry makes. *)

module type Config = sig
  val shards : int
end

(* Inner sub-transaction ids must not collide with outer ids: several TMs
   use the id as their orec ownership token, and two live inner
   transactions sharing an id could be mistaken for one owner. Sub-ids are
   drawn from a dedicated machine cell (peek/poke, event-free — so explorer
   re-runs replay them) offset far above any outer id a run can reach. *)
let sub_id_base = 1_000_000_000

(* The protocol, written once over the program signature: [Make] is its
   direct instance, [Make_step] its step instance. *)
module Body
    (P : Proc.S)
    (C : Config)
    (T : Ptm_core.Tm_intf.Generic with type 'a m := 'a P.t) =
struct
  let ( let* ) = P.bind
  let () = if C.shards < 1 then invalid_arg "Sharded.Make: shards must be >= 1"
  let name = Printf.sprintf "%s.x%d" T.name C.shards

  let props =
    if C.shards = 1 then T.props
    else
      {
        Ptm_core.Tm_intf.opaque = true;
        weak_dap = false;
        invisible_reads = false;
        weak_invisible_reads = false;
        progressive = false;
        strongly_progressive = false;
      }

  type t = {
    mem : Memory.t;
    inner : T.t array;
    word : Memory.addr array;
    sub_id : Memory.addr;
  }

  (* A lock word is [version lsl 2 lor state]; state 0 is free. *)
  let validating = 1
  let publishing = 2
  let version w = w lsr 2
  let free v = Value.int_ (v lsl 2)

  (* At version [v], with no publication in flight. *)
  let steady w v = w land publishing = 0 && version w = v

  let shard x = x mod C.shards
  let slot x = x / C.shards

  (* objects of shard [s]: { x | x mod shards = s } *)
  let shard_size ~nobjs s =
    if s >= nobjs then 0 else ((nobjs - s - 1) / C.shards) + 1

  let create machine ~nobjs =
    let inner =
      Array.init C.shards (fun s ->
          T.create machine ~nobjs:(shard_size ~nobjs s))
    in
    if C.shards = 1 then
      (* full passthrough: allocate nothing of our own, so the machine —
         run-time allocations of the inner TM included — is cell-for-cell
         the one the bare TM would build *)
      { mem = Machine.memory machine; inner; word = [||]; sub_id = -1 }
    else
      let word =
        Machine.alloc_array machine ~name:(name ^ ".lock") C.shards
          (Value.Int 0)
      in
      let sub_id =
        Machine.alloc machine ~name:(name ^ ".sub_id") (Value.Int 0)
      in
      { mem = Machine.memory machine; inner; word; sub_id }

  type tx = {
    pid : int;
    pass : T.tx option;  (* [shards = 1]: full passthrough *)
    rcache : (int * int) list P.var;  (* obj -> first value read, newest first *)
    wbuf : (int * int) list P.var;
        (* obj -> last value written; objects newest first by first write *)
    ver : int P.var array;  (* version at last validation; -1 = untouched *)
  }

  let fresh t ~pid ~id =
    {
      pid;
      pass = (if C.shards = 1 then Some (T.fresh t.inner.(0) ~pid ~id) else None);
      rcache = P.var [];
      wbuf = P.var [];
      ver = Array.init C.shards (fun _ -> P.var (-1));
    }

  let next_sub t =
    let n = Value.to_int (Memory.peek t.mem t.sub_id) in
    Memory.poke t.mem t.sub_id (Value.int_ (n + 1));
    sub_id_base + n

  let rec assoc (x : int) = function
    | [] -> None
    | (y, v) :: rest -> if y = x then Some v else assoc x rest

  (* The helpers below are built only inside the t-operations' bodies,
     where each is bound, so they take no [suspend] of their own. *)

  (* One one-shot read of shard [s]'s slot [sx]: [None] if the inner TM
     aborted the attempt (the caller re-samples). An aborted inner handle
     has already released everything it held, so abandoning it is safe. *)
  let mini_read t ~pid s sx =
    let sub = T.fresh t.inner.(s) ~pid ~id:(next_sub t) in
    let* r = T.read t.inner.(s) sub sx in
    match r with
    | Error `Abort -> P.return None
    | Ok v -> (
        let* c = T.try_commit t.inner.(s) sub in
        match c with
        | Ok () -> P.return (Some v)
        | Error `Abort -> P.return None)

  (* Sample (value, version) of object [x] inside a stable window. A commit
     holds a shard to publish from before its first inner write to the
     release that bumps the version, so a window closing steady proves the
     value was committed state throughout. A transaction holds no word
     outside try_commit, which never samples this way. *)
  let rec stable_read t ~pid x =
    let s = shard x in
    let* w0 = P.read_int t.word.(s) in
    if w0 land publishing <> 0 then stable_read t ~pid x
    else
      let* r = mini_read t ~pid s (slot x) in
      match r with
      | None -> stable_read t ~pid x
      | Some v ->
          let* w1 = P.read_int t.word.(s) in
          if steady w1 (version w0) then P.return (v, version w0)
          else stable_read t ~pid x

  let touched tx =
    let acc = ref [] in
    for s = C.shards - 1 downto 0 do
      if P.get tx.ver.(s) >= 0 then acc := s :: !acc
    done;
    !acc

  (* The version of each listed shard, read in list order, each read again
     while a publication is in flight on it. *)
  let rec versions t = function
    | [] -> P.return []
    | s :: rest as shards ->
        let* w = P.read_int t.word.(s) in
        if w land publishing <> 0 then versions t shards
        else
          let* vs = versions t rest in
          P.return ((s, version w) :: vs)

  (* Re-sample, in read order, the cached reads of every shard whose
     version moved since the transaction last validated it ([tx.ver]), and
     require (a) each value unchanged and (b) every touched shard steady at
     one version across the whole pass. A shard still at its validated
     version saw no publication since, so its reads are committed state at
     that version and are skipped; on success the entire read set was
     simultaneously committed state at the end of the pass. A moved version
     restarts the pass; a changed value is a real conflict and fails it. *)
  let rec revalidate t tx =
    let* vs = versions t (touched tx) in
    let pass = Array.make C.shards (-1) in
    List.iter (fun (s, v) -> pass.(s) <- v) vs;
    let rec check = function
      | [] -> P.return `Ok
      | (y, v_old) :: rest ->
          let s = shard y in
          if pass.(s) = P.get tx.ver.(s) then check rest
          else
            let* v', at = stable_read t ~pid:tx.pid y in
            if at <> pass.(s) then P.return `Restart
            else if v' <> v_old then P.return `Fail
            else check rest
    in
    let* outcome = check (List.rev (P.get tx.rcache)) in
    match outcome with
    | `Fail -> P.return false
    | `Restart -> revalidate t tx
    | `Ok ->
        let* ok =
          P.for_all
            (fun (s, v) ->
              let* w = P.read_int t.word.(s) in
              P.return (steady w v))
            vs
        in
        if not ok then revalidate t tx
        else (
          List.iter (fun (s, v) -> P.set tx.ver.(s) v) vs;
          P.return true)

  let read t tx x =
    P.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.read t.inner.(0) sub (slot x)
    | None -> (
        match assoc x (P.get tx.wbuf) with
        | Some v -> P.return (Ok v)
        | None -> (
            match assoc x (P.get tx.rcache) with
            | Some v -> P.return (Ok v)
            | None ->
                let* v, at = stable_read t ~pid:tx.pid x in
                let s = shard x in
                let known = P.get tx.ver.(s) in
                (* no other word read once the own shard already moved *)
                let* still =
                  if known >= 0 && known <> at then P.return false
                  else
                    P.for_all
                      (fun s' ->
                        if s' = s then P.return true
                        else
                          let* w = P.read_int t.word.(s') in
                          P.return (steady w (P.get tx.ver.(s'))))
                      (touched tx)
                in
                P.set tx.rcache ((x, v) :: P.get tx.rcache);
                if known < 0 then P.set tx.ver.(s) at;
                if still then P.return (Ok v)
                else
                  let* ok = revalidate t tx in
                  P.return (if ok then Ok v else Error `Abort)))

  let write t tx x v =
    P.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.write t.inner.(0) sub (slot x) v
    | None ->
        let wbuf = P.get tx.wbuf in
        P.set tx.wbuf
          (match assoc x wbuf with
          | None -> (x, v) :: wbuf
          | Some _ ->
              List.map (fun (y, w) -> if y = x then (y, v) else (y, w)) wbuf);
        P.return (Ok ())

  (* Hold shard [s] in [state] by a CAS from the free word [w] or, once
     that fails, from the next free word read; the version held. *)
  let rec acquire t s state w =
    let* won =
      P.cas t.word.(s) ~expected:(Value.int_ w)
        ~desired:(Value.int_ (w lor state))
    in
    if won then P.return (version w) else wait_free t s state

  and wait_free t s state =
    let* w = P.read_int t.word.(s) in
    if w land 3 <> 0 then wait_free t s state else acquire t s state w

  (* Under a hold on shard [s], whose committed state therefore holds
     still: each cached read of [s] is re-read once with a bare mini-read
     (retried while the inner TM aborts it) and must be unchanged. *)
  let validate_held t tx s =
    let rec reread sx =
      let* r = mini_read t ~pid:tx.pid s sx in
      match r with Some v -> P.return v | None -> reread sx
    in
    P.for_all
      (fun (y, v_old) ->
        if shard y <> s then P.return true
        else
          let* v = reread (slot y) in
          P.return (v = v_old))
      (List.rev (P.get tx.rcache))

  (* Hold every touched shard from [s] up in ascending order, consing each
     (shard, version) onto [held]; [false] once a shard's reads changed. *)
  let rec hold t tx writes s held =
    if s = C.shards then P.return (true, held)
    else
      let v = P.get tx.ver.(s) in
      let state = match writes.(s) with [] -> validating | _ -> publishing in
      if v < 0 && state = validating then hold t tx writes (s + 1) held
      else
        let* v' =
          if v < 0 then wait_free t s state else acquire t s state (v lsl 2)
        in
        let* valid =
          if v < 0 || v' = v then P.return true else validate_held t tx s
        in
        if valid then hold t tx writes (s + 1) ((s, v') :: held)
        else P.return (false, (s, v') :: held)

  (* Publish one shard's buffered writes as a fresh write-only inner
     transaction, retried until the inner TM accepts it: we hold the shard,
     so only transient mini-reads can conflict, and nothing becomes
     visible until the inner try_commit lands. *)
  let rec publish t ~pid s writes =
    let sub = T.fresh t.inner.(s) ~pid ~id:(next_sub t) in
    let rec go = function
      | [] -> (
          let* c = T.try_commit t.inner.(s) sub in
          match c with
          | Ok () -> P.return true
          | Error `Abort -> P.return false)
      | (sx, v) :: rest -> (
          let* r = T.write t.inner.(s) sub sx v in
          match r with
          | Ok () -> go rest
          | Error `Abort -> P.return false)
    in
    let* ok = go writes in
    if ok then P.return () else publish t ~pid s writes

  let try_commit t tx =
    P.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.try_commit t.inner.(0) sub
    | None -> (
        match P.get tx.wbuf with
        | [] -> P.return (Ok ())
        (* read-only: the cache was validated as of the last t-read, a
           legal serialization point inside the transaction's interval *)
        | wbuf ->
            (* each shard's writes as (slot, value), in first-write order *)
            let writes = Array.make C.shards [] in
            List.iter
              (fun (x, v) ->
                writes.(shard x) <- (slot x, v) :: writes.(shard x))
              wbuf;
            let* valid, held = hold t tx writes 0 [] in
            let held = List.rev held in
            let published s =
              valid && match writes.(s) with [] -> false | _ -> true
            in
            let* () =
              P.iter
                (fun (s, _) ->
                  if published s then publish t ~pid:tx.pid s writes.(s)
                  else P.return ())
                held
            in
            (* every release after the last publication: a published shard
               at the next version, any other at its own *)
            let* () =
              P.iter
                (fun (s, v) ->
                  P.write t.word.(s) (free (if published s then v + 1 else v)))
                held
            in
            P.return (if valid then Ok () else Error `Abort))
end

module Make (C : Config) (T : Ptm_core.Tm_intf.S) = Body (Proc.Direct) (C) (T)

module Make_step (C : Config) (T : Ptm_core.Tm_intf.S_step) =
  Body (Proc.Step) (C) (T)
