open Ptm_machine

(* Sharded multi-TM: N independent inner TM instances keyed by object hash
   (shard of object [x] is [x mod shards]; its index inside the shard is
   [x / shards]), glued together by a commit-fence two-phase protocol kept
   entirely at this layer:

   - per shard, a {e fence} F_s (a CAS lock, value 0 = free, else owner
     pid + 1) and a {e seqlock} SQ_s (bumped once per publication to the
     shard, while the fence is held);
   - t-reads never touch a long-lived inner transaction: each uncached read
     is a one-shot {e mini-transaction} against its shard (fresh / read /
     try_commit), sampled inside a stable window — fence clear before and
     after, seqlock unchanged across — so a value torn by an in-flight
     publication is never returned;
   - t-writes are buffered locally; nothing is visible before try_commit;
   - reads are value-validated, NOrec-style: whenever any touched shard's
     seqlock moves, the cached reads of every shard whose seqlock moved
     since it was last validated are re-sampled and compared, and a
     changed value aborts the transaction (only a genuinely conflicting
     commit can cause this); a shard whose seqlock stands still saw no
     publication complete, so its reads are not re-sampled;
   - try_commit of an updating transaction acquires the fences of every
     touched shard, written or read, in ascending order (deadlock-free).
     With those fences held no publication can be in flight on a touched
     shard, so validation needs no stable windows: one seqlock read per
     touched shard, and one bare mini-read per cached read of a shard
     whose seqlock moved. It then publishes each written shard's writes as
     a fresh write-only inner transaction (retried until the inner TM
     accepts it — under the fence only transient mini-reads can conflict),
     bumps the shard's seqlock {e before} releasing its fence, and
     releases.

   Single-shard transactions take the fast path: a read-only transaction
   commits with zero shared-memory events (its cache was validated at the
   last read), and a transaction touching a single shard acquires only
   that shard's fence — the cross-shard coordinator is exactly the
   multi-fence acquisition, which such transactions never execute. With
   [shards = 1] the functor degenerates further: every operation passes
   straight through to the single inner instance, event for event.

   A crash while holding a fence starves later writers and readers of that
   shard (they spin in the stable-window loop) but can never expose a torn
   cross-shard commit: the seqlock bump and the fence release bracket every
   publication, so no stable window closes around partial state. Safety
   survives crash-under-load; liveness does not — the same trade every
   lock-based TM in the registry makes. *)

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
    fence : Memory.addr array;
    seq : Memory.addr array;
    sub_id : Memory.addr;
  }

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
      { mem = Machine.memory machine; inner; fence = [||]; seq = [||];
        sub_id = -1 }
    else
      let fence =
        Array.init C.shards (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "%s.fence[%d]" name s)
              (Value.Int 0))
      in
      let seq =
        Array.init C.shards (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "%s.seq[%d]" name s)
              (Value.Int 0))
      in
      let sub_id =
        Machine.alloc machine ~name:(name ^ ".sub_id") (Value.Int 0)
      in
      { mem = Machine.memory machine; inner; fence; seq; sub_id }

  type tx = {
    pid : int;
    pass : T.tx option;  (* [shards = 1]: full passthrough *)
    rcache : (int * int) list P.var;  (* obj -> first value read, newest first *)
    wbuf : (int * int) list P.var;
        (* obj -> last value written; objects newest first by first write *)
    shard_seq : int P.var array;  (* SQ_s at last validation; -1 = untouched *)
  }

  let fresh t ~pid ~id =
    {
      pid;
      pass = (if C.shards = 1 then Some (T.fresh t.inner.(0) ~pid ~id) else None);
      rcache = P.var [];
      wbuf = P.var [];
      shard_seq = Array.init C.shards (fun _ -> P.var (-1));
    }

  let next_sub t =
    let n = Value.to_int (Memory.peek t.mem t.sub_id) in
    Memory.poke t.mem t.sub_id (Value.int_ (n + 1));
    sub_id_base + n

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

  (* Sample (value, seq) of object [x] inside a stable window: fence clear
     before, seqlock unchanged and fence clear after. Publications bump the
     seqlock before releasing the fence, so a window closing clean proves
     the value was committed state for the whole window. A transaction
     holds no fence outside try_commit, which never samples this way. *)
  let rec stable_read t ~pid x =
    let s = shard x in
    let* f0 = P.read_int t.fence.(s) in
    if f0 <> 0 then stable_read t ~pid x
    else
      let* q0 = P.read_int t.seq.(s) in
      let* r = mini_read t ~pid s (slot x) in
      match r with
      | None -> stable_read t ~pid x
      | Some v ->
          let* q1 = P.read_int t.seq.(s) in
          (* no closing fence read once the seqlock moved *)
          if q1 <> q0 then stable_read t ~pid x
          else
            let* f1 = P.read_int t.fence.(s) in
            if f1 = 0 then P.return (v, q0) else stable_read t ~pid x

  let touched tx =
    let acc = ref [] in
    for s = C.shards - 1 downto 0 do
      if P.get tx.shard_seq.(s) >= 0 then acc := s :: !acc
    done;
    !acc

  (* The read cache in the order validation visits it: the [Hashtbl.fold]
     order of a table filled with the cached reads, oldest first ([fold]
     prepends, hence the reversal). *)
  let cached tx =
    let h = Hashtbl.create 8 in
    List.iter (fun (y, v) -> Hashtbl.replace h y v) (List.rev (P.get tx.rcache));
    List.rev (Hashtbl.fold (fun y v acc -> (y, v) :: acc) h [])

  (* The seqlock of each listed shard, read in list order. *)
  let rec read_seqs t = function
    | [] -> P.return []
    | s :: rest ->
        let* q = P.read_int t.seq.(s) in
        let* qs = read_seqs t rest in
        P.return ((s, q) :: qs)

  (* Re-sample the cached reads of every shard whose seqlock moved since
     the transaction last validated it ([tx.shard_seq]), and require (a)
     each value unchanged and (b) every touched shard's seqlock steady at
     one level across the whole pass. A shard still at its validated level
     saw no publication complete since, so its reads are committed state at
     that level and are skipped; on success the entire read set was
     simultaneously committed state at the end of the pass. A moved
     seqlock restarts the pass; a changed value is a real conflict and
     fails it. *)
  let rec revalidate t tx =
    let* qs = read_seqs t (touched tx) in
    let pass = Array.make C.shards (-1) in
    List.iter (fun (s, q) -> pass.(s) <- q) qs;
    let rec check = function
      | [] -> P.return `Ok
      | (y, v_old) :: rest ->
          let s = shard y in
          if pass.(s) = P.get tx.shard_seq.(s) then check rest
          else
            let* v', q' = stable_read t ~pid:tx.pid y in
            if q' <> pass.(s) then P.return `Restart
            else if v' <> v_old then P.return `Fail
            else check rest
    in
    let* outcome = check (cached tx) in
    match outcome with
    | `Fail -> P.return false
    | `Restart -> revalidate t tx
    | `Ok ->
        let* ok =
          P.for_all
            (fun s ->
              let* q = P.read_int t.seq.(s) in
              P.return (q = pass.(s)))
            (touched tx)
        in
        if ok then begin
          List.iter (fun s -> P.set tx.shard_seq.(s) pass.(s)) (touched tx);
          P.return true
        end
        else revalidate t tx

  (* Commit-time validation, under the fence of every touched shard: no
     publication can be in flight on a fenced shard, so its seqlock and its
     committed state hold still. A shard whose seqlock still stands at
     [tx.shard_seq] needs nothing more; each cached read of a moved shard
     is re-read once with a bare mini-read (retried while the inner TM
     aborts it, as in [stable_read]) and must be unchanged. *)
  let validate_fenced t tx =
    let* qs = read_seqs t (touched tx) in
    let moved = Array.make C.shards false in
    List.iter (fun (s, q) -> moved.(s) <- q <> P.get tx.shard_seq.(s)) qs;
    let rec reread s sx =
      let* r = mini_read t ~pid:tx.pid s sx in
      match r with Some v -> P.return v | None -> reread s sx
    in
    P.for_all
      (fun (y, v_old) ->
        if not moved.(shard y) then P.return true
        else
          let* v = reread (shard y) (slot y) in
          P.return (v = v_old))
      (cached tx)

  let read t tx x =
    P.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.read t.inner.(0) sub (slot x)
    | None -> (
        match List.assoc_opt x (P.get tx.wbuf) with
        | Some v -> P.return (Ok v)
        | None -> (
            match List.assoc_opt x (P.get tx.rcache) with
            | Some v -> P.return (Ok v)
            | None ->
                let* v, q = stable_read t ~pid:tx.pid x in
                let s = shard x in
                let is_new = P.get tx.shard_seq.(s) < 0 in
                (* no seqlock reads once the own-shard check already
                   moved *)
                let* steady =
                  if (not is_new) && P.get tx.shard_seq.(s) <> q then
                    P.return false
                  else
                    P.for_all
                      (fun s' ->
                        if s' = s then P.return true
                        else
                          let* q' = P.read_int t.seq.(s') in
                          P.return (q' = P.get tx.shard_seq.(s')))
                      (touched tx)
                in
                P.set tx.rcache ((x, v) :: P.get tx.rcache);
                if is_new then P.set tx.shard_seq.(s) q;
                if steady then P.return (Ok v)
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
          (if List.mem_assoc x wbuf then
             List.map (fun (y, w) -> if y = x then (y, v) else (y, w)) wbuf
           else (x, v) :: wbuf);
        P.return (Ok ())

  let rec acquire t ~pid s =
    let* f = P.read_int t.fence.(s) in
    if f <> 0 then acquire t ~pid s
    else
      let* won =
        P.cas t.fence.(s) ~expected:(Value.Int 0)
          ~desired:(Value.int_ (pid + 1))
      in
      if won then P.return () else acquire t ~pid s

  (* Publish one shard's buffered writes as a fresh write-only inner
     transaction, retried until the inner TM accepts it: we hold the
     shard's fence, so only transient mini-reads can conflict, and nothing
     becomes visible until the inner try_commit lands. *)
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

  let release t fshards =
    P.iter (fun s -> P.write t.fence.(s) (Value.Int 0)) fshards

  let try_commit t tx =
    P.suspend @@ fun () ->
    match tx.pass with
    | Some sub -> T.try_commit t.inner.(0) sub
    | None ->
        let wbuf = P.get tx.wbuf in
        if wbuf = [] then P.return (Ok ())
          (* read-only: the cache was validated as of the last t-read, a
             legal serialization point inside the transaction's interval *)
        else
          let wshards =
            List.sort_uniq compare (List.map (fun (x, _) -> shard x) wbuf)
          in
          (* fence every touched shard, written or read, in ascending
             order: ordered acquisition is deadlock-free, and with all
             touched seqlocks frozen the validation below cannot race *)
          let fshards = List.sort_uniq compare (wshards @ touched tx) in
          let* () = P.iter (acquire t ~pid:tx.pid) fshards in
          let* valid = validate_fenced t tx in
          if not valid then
            let* () = release t fshards in
            P.return (Error `Abort)
          else
            let* () =
              P.iter
                (fun s ->
                  let writes =
                    List.rev wbuf
                    |> List.filter_map (fun (x, v) ->
                           if shard x = s then Some (slot x, v) else None)
                  in
                  let* () = publish t ~pid:tx.pid s writes in
                  let* (_ : int) = P.faa t.seq.(s) 1 in
                  P.return ())
                wshards
            in
            let* () = release t fshards in
            P.return (Ok ())
end

module Make (C : Config) (T : Ptm_core.Tm_intf.S) = Body (Proc.Direct) (C) (T)

module Make_step (C : Config) (T : Ptm_core.Tm_intf.S_step) =
  Body (Proc.Step) (C) (T)
