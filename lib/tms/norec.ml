open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "norec"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = false;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = { seq : Memory.addr; data : Memory.addr array }

  let create machine ~nobjs =
    {
      seq = Machine.alloc machine ~name:"norec.seq" (Value.Int 0);
      data =
        Machine.alloc_array machine ~name:"norec.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    snap : int P.var;  (* -1 until initialized *)
    rset : (int * int) list P.var;  (* obj -> value read *)
    wbuf : (int * int) list P.var;
  }

  let fresh _t ~pid:_ ~id:_ =
    { snap = P.var (-1); rset = P.var []; wbuf = P.var [] }

  let wait_even t =
    P.suspend @@ fun () ->
    let rec go () =
      let* s = P.read_int t.seq in
      if s land 1 = 1 then go () else P.return s
    in
    go ()

  (* Value-based validation: wait for an even sequence number, re-read every
     read-set entry, confirm the sequence number did not move. Returns the
     new consistent snapshot, or None if an observed value changed (a
     conflict). *)
  let validate t tx =
    P.suspend @@ fun () ->
    let rec go () =
      let* s = wait_even t in
      let* unchanged =
        P.for_all
          (fun (x, v) ->
            let* v' = P.read_int t.data.(x) in
            P.return (v' = v))
          (P.get tx.rset)
      in
      if unchanged then
        let* s' = P.read_int t.seq in
        if s' = s then P.return (Some s) else go ()
      else P.return None
    in
    go ()

  (* Initialize the snapshot on the transaction's first shared access. *)
  let ensure_snap t tx =
    P.suspend @@ fun () ->
    if P.get tx.snap >= 0 then P.return ()
    else
      let* s = wait_even t in
      P.set tx.snap s;
      P.return ()

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some v -> P.return (Ok v)
        | None ->
            let* () = ensure_snap t tx in
            let rec go () =
              let* v = P.read_int t.data.(x) in
              let* s = P.read_int t.seq in
              if s = P.get tx.snap then begin
                P.set tx.rset ((x, v) :: P.get tx.rset);
                P.return (Ok v)
              end
              else
                let* r = validate t tx in
                match r with
                | None -> P.return (Error `Abort)
                | Some s' ->
                    P.set tx.snap s';
                    go ()
            in
            go ())

  let write _t tx x v =
    P.suspend @@ fun () ->
    P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
    P.return (Ok ())

  let try_commit t tx =
    P.suspend @@ fun () ->
    if P.get tx.wbuf = [] then P.return (Ok ())
    else
      let* () = ensure_snap t tx in
      let rec acquire () =
        let snap = P.get tx.snap in
        let* won =
          P.cas t.seq ~expected:(Value.Int snap) ~desired:(Value.Int (snap + 1))
        in
        if won then P.return true
        else
          let* r = validate t tx in
          match r with
          | None -> P.return false
          | Some s ->
              P.set tx.snap s;
              acquire ()
      in
      let* acquired = acquire () in
      if not acquired then P.return (Error `Abort)
      else
        (* the newest buffered value of each object, newest first *)
        let writes =
          List.fold_left
            (fun acc (x, v) ->
              if List.mem_assoc x acc then acc else (x, v) :: acc)
            [] (P.get tx.wbuf)
          |> List.rev
        in
        let* () =
          P.iter (fun (x, v) -> P.write t.data.(x) (Value.Int v)) writes
        in
        let* () = P.write t.seq (Value.Int (P.get tx.snap + 2)) in
        P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
