open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "undolog"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = { orecs : Memory.addr array; data : Memory.addr array }

  let create machine ~nobjs =
    {
      orecs =
        Machine.alloc_array machine ~name:"undo.orec" nobjs
          (Orec.pack ~ver:0 ~owner:Orec.none);
      data =
        Machine.alloc_array machine ~name:"undo.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    rset : (int * (int * int)) list P.var;  (* obj -> (ver, value) *)
    undo : (int * (int * int)) list P.var;
        (* obj -> (ver at lock, old value); most recent first, one entry per
           locked object *)
  }

  let fresh _t ~pid:_ ~id = { id; rset = P.var []; undo = P.var [] }

  let locked_by_me tx x = List.mem_assoc x (P.get tx.undo)

  (* Restore old values, then release the locks with a BUMPED version (the
     incarnation trick of TinySTM): releasing with the original version would
     let a concurrent reader pass its orec double-check around the whole
     lock / dirty-write / rollback cycle and return the uncommitted value —
     an ABA our schedule explorer finds in a 2-transaction workload. The
     spurious version advance only aborts readers that overlapped the undone
     writer, which is a concurrent conflicting transaction, so
     progressiveness is preserved. *)
  let rollback t tx =
    P.suspend @@ fun () ->
    let* () =
      P.iter
        (fun (x, (ver, old)) ->
          let* () = P.write t.data.(x) (Value.Int old) in
          P.write t.orecs.(x) (Orec.pack ~ver:(ver + 1) ~owner:Orec.none))
        (P.get tx.undo)
    in
    P.set tx.undo [];
    P.return ()

  let abort t tx =
    let* () = rollback t tx in
    P.return (Error `Abort)

  let valid t tx =
    P.suspend @@ fun () ->
    P.for_all
      (fun (x, (ver, _)) ->
        let* o = P.read t.orecs.(x) in
        let ver', owner' = Orec.unpack o in
        P.return (ver' = ver && (owner' = Orec.none || owner' = tx.id)))
      (P.get tx.rset)

  let read t tx x =
    P.suspend @@ fun () ->
    if locked_by_me tx x then
      let* v = P.read_int t.data.(x) in
      P.return (Ok v)
    else
      match List.assoc_opt x (P.get tx.rset) with
      | Some (_, v) -> P.return (Ok v)
      | None ->
          let* o = P.read t.orecs.(x) in
          let ver, owner = Orec.unpack o in
          if owner <> Orec.none then abort t tx
          else
            let* v = P.read_int t.data.(x) in
            let* o2 = P.read t.orecs.(x) in
            let ver2, owner2 = Orec.unpack o2 in
            if ver2 <> ver || owner2 <> owner then abort t tx
            else
              let* ok = valid t tx in
              if not ok then abort t tx
              else begin
                P.set tx.rset ((x, (ver, v)) :: P.get tx.rset);
                P.return (Ok v)
              end

  let write t tx x v =
    P.suspend @@ fun () ->
    if locked_by_me tx x then
      let* () = P.write t.data.(x) (Value.Int v) in
      P.return (Ok ())
    else
      let* o = P.read t.orecs.(x) in
      let ver, owner = Orec.unpack o in
      if owner <> Orec.none then abort t tx
      else
        let* locked =
          P.cas t.orecs.(x)
            ~expected:(Orec.pack ~ver ~owner:Orec.none)
            ~desired:(Orec.pack ~ver ~owner:tx.id)
        in
        if locked then
          let* old = P.read_int t.data.(x) in
          P.set tx.undo ((x, (ver, old)) :: P.get tx.undo);
          let* () = P.write t.data.(x) (Value.Int v) in
          P.return (Ok ())
        else abort t tx

  let try_commit t tx =
    P.suspend @@ fun () ->
    let* ok = valid t tx in
    if not ok then abort t tx
    else
      (* data is already in place: bump versions and release *)
      let* () =
        P.iter
          (fun (x, (ver, _)) ->
            P.write t.orecs.(x) (Orec.pack ~ver:(ver + 1) ~owner:Orec.none))
          (P.get tx.undo)
      in
      P.set tx.undo [];
      P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
