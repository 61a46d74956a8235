open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "ostm"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = false;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  (* Header encoding: a clean object is Pair (Int ver, Int value); an object
     owned by a committing transaction is Int desc, where [desc] is the
     address of the descriptor's status cell. The descriptor occupies three
     consecutively allocated cells:

       desc     : status, Int (0 undecided | 1 successful | 2 failed)
       desc + 1 : write list, nested pairs of (x, (over, (oval, nval)))
       desc + 2 : read list, nested pairs of (x, ver)

     The lists are written before the descriptor is published and never
     mutated afterwards, so helpers can re-read them idempotently. *)

  let undecided = 0
  let successful = 1
  let failed = 2

  let clean ~ver ~v = Value.Pair (Value.Int ver, Value.Int v)

  type header = Clean of int * int | Owned of int

  let header_of = function
    | Value.Pair (Value.Int ver, Value.Int v) -> Clean (ver, v)
    | Value.Int d -> Owned d
    | v -> invalid_arg ("Ostm: malformed header " ^ Value.show v)

  let rec encode_writes = function
    | [] -> Value.Unit
    | (x, (over, oval, nval)) :: rest ->
        Value.Pair
          ( Value.Pair
              ( Value.Int x,
                Value.Pair
                  (Value.Int over, Value.Pair (Value.Int oval, Value.Int nval))
              ),
            encode_writes rest )

  let rec decode_writes = function
    | Value.Unit -> []
    | Value.Pair
        ( Value.Pair
            ( Value.Int x,
              Value.Pair (Value.Int over, Value.Pair (Value.Int oval, Value.Int nval))
            ),
          rest ) ->
        (x, (over, oval, nval)) :: decode_writes rest
    | v -> invalid_arg ("Ostm: malformed write list " ^ Value.show v)

  let rec encode_reads = function
    | [] -> Value.Unit
    | (x, ver) :: rest ->
        Value.Pair (Value.Pair (Value.Int x, Value.Int ver), encode_reads rest)

  let rec decode_reads = function
    | Value.Unit -> []
    | Value.Pair (Value.Pair (Value.Int x, Value.Int ver), rest) ->
        (x, ver) :: decode_reads rest
    | v -> invalid_arg ("Ostm: malformed read list " ^ Value.show v)

  type t = { headers : Memory.addr array; machine : Machine.t }

  let create machine ~nobjs =
    {
      headers =
        Machine.alloc_array machine ~name:"ostm.h" nobjs
          (clean ~ver:0 ~v:Ptm_core.Tm_intf.init_value);
      machine;
    }

  type tx = {
    id : int;
    pid : int;
    rset : (int * (int * int)) list P.var;  (* obj -> (ver, value) *)
    wbuf : (int * int) list P.var;  (* latest first *)
  }

  let fresh _t ~pid ~id = { id; pid; rset = P.var []; wbuf = P.var [] }

  (* Suspended frames of in-progress completions: finding a header owned by
     a rival used to recurse into the rival's descriptor (with a depth-64
     guard turning long chains into a crash); the helping loop below is its
     defunctionalization — the frame records exactly where the outer
     completion resumes once the rival is driven to completion, so helping
     chains of any length run in constant stack. *)
  type kont =
    | K_acquire of
        int  (* desc *)
        * (int * (int * int * int)) list  (* full write list, for release *)
        * (int * int) list  (* read list, for the check phase *)
        * (int * (int * int * int)) list  (* pending acquire entries *)
    | K_check of
        int  (* desc *)
        * (int * (int * int * int)) list  (* full write list, for release *)
        * (int * int) list  (* pending read-check entries *)

  (* Drive the commit of the descriptor at [desc0] to completion. Safe to
     run concurrently by any number of helpers: every step is an idempotent
     CAS. Sorted acquisition orders write-write helping; read-write rivals
     are aborted rather than helped forward (see the check phase). *)
  let complete t desc0 =
    P.suspend @@ fun () ->
    let rec load d stack =
      let* w = P.read (d + 1) in
      let* r = P.read (d + 2) in
      let writes = decode_writes w in
      acquire d writes (decode_reads r) writes stack
    (* acquire phase *)
    and acquire d writes reads pending stack =
      match pending with
      | [] -> check d writes reads stack
      | (x, (over, oval, _)) :: rest -> (
          let* st = P.read_int d in
          if st <> undecided then check d writes reads stack
            (* already decided: skip straight to the decide/release pass *)
          else
            let* h = P.read t.headers.(x) in
            match header_of h with
            | Owned dd when dd = d -> acquire d writes reads rest stack
            | Owned dd ->
                (* help the rival first; resume this entry afterwards *)
                load dd
                  (K_acquire (d, writes, reads, (x, (over, oval, 0)) :: rest)
                  :: stack)
            | Clean (ver, v) ->
                if ver = over && v = oval then
                  let* won =
                    P.cas t.headers.(x)
                      ~expected:(clean ~ver:over ~v:oval)
                      ~desired:(Value.Int d)
                  in
                  if won then acquire d writes reads rest stack
                  else
                    acquire d writes reads ((x, (over, oval, 0)) :: rest) stack
                else
                  (* the object moved on: this commit must fail *)
                  let* _ =
                    P.cas d ~expected:(Value.Int undecided)
                      ~desired:(Value.Int failed)
                  in
                  check d writes reads stack)
    (* Read-check phase. A read-write conflict must NOT be resolved by
       helping: the rival may itself be read-checking an object we own, and
       mutual helping cycles (sorted acquisition only orders write-write
       conflicts). Following Fraser's FSTM, an undecided rival is aborted
       with a status CAS; completing it afterwards only drives its release
       phase, which cannot grow the helping chain. *)
    and check d writes pending stack =
      match pending with
      | [] -> decide d writes stack
      | (x, ver) :: rest -> (
          let* st = P.read_int d in
          if st <> undecided then decide d writes stack
          else
            let* h = P.read t.headers.(x) in
            match header_of h with
            | Owned dd when dd = d -> check d writes rest stack
            | Owned dd ->
                let* std = P.read_int dd in
                let* () =
                  if std = undecided then
                    let* _ =
                      P.cas dd ~expected:(Value.Int undecided)
                        ~desired:(Value.Int failed)
                    in
                    P.return ()
                  else P.return ()
                in
                load dd (K_check (d, writes, (x, ver) :: rest) :: stack)
            | Clean (ver', _) ->
                if ver' = ver then check d writes rest stack
                else
                  let* _ =
                    P.cas d ~expected:(Value.Int undecided)
                      ~desired:(Value.Int failed)
                  in
                  decide d writes stack)
    (* decide *)
    and decide d writes stack =
      let* _ =
        P.cas d ~expected:(Value.Int undecided)
          ~desired:(Value.Int successful)
      in
      let* outcome = P.read_int d in
      release d writes outcome stack
    (* release phase *)
    and release d writes outcome stack =
      match writes with
      | [] -> pop stack
      | (x, (over, oval, nval)) :: rest ->
          let resolution =
            if outcome = successful then clean ~ver:(over + 1) ~v:nval
            else clean ~ver:over ~v:oval
          in
          let* _ =
            P.cas t.headers.(x) ~expected:(Value.Int d) ~desired:resolution
          in
          release d rest outcome stack
    (* a finished completion resumes the helper that needed it, if any *)
    and pop = function
      | [] -> P.return ()
      | K_acquire (d, writes, reads, pending) :: stack ->
          acquire d writes reads pending stack
      | K_check (d, writes, pending) :: stack -> check d writes pending stack
    in
    load desc0 []

  (* Read a stable (clean) header, helping any commit in progress. *)
  let stable_header t x =
    P.suspend @@ fun () ->
    let rec go () =
      let* h = P.read t.headers.(x) in
      match header_of h with
      | Clean (ver, v) -> P.return (ver, v)
      | Owned d ->
          let* () = complete t d in
          go ()
    in
    go ()

  let valid t tx =
    P.suspend @@ fun () ->
    P.for_all
      (fun (x, (ver, _)) ->
        let* ver', _ = stable_header t x in
        P.return (ver' = ver))
      (P.get tx.rset)

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some (_, v) -> P.return (Ok v)
        | None ->
            let* ver, v = stable_header t x in
            let* ok = valid t tx in
            if not ok then P.return (Error `Abort)
            else begin
              P.set tx.rset ((x, (ver, v)) :: P.get tx.rset);
              P.return (Ok v)
            end)

  let write _t tx x v =
    P.suspend @@ fun () ->
    P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
    P.return (Ok ())

  let try_commit t tx =
    P.suspend @@ fun () ->
    let wbuf = P.get tx.wbuf and rset = P.get tx.rset in
    if wbuf = [] then
      let* ok = valid t tx in
      P.return (if ok then Ok () else Error `Abort)
    else
      (* Snapshot expected old values for the write set (helping rivals as
         needed), reusing read-set knowledge where available. *)
      let wset = List.sort_uniq compare (List.map fst wbuf) in
      let rec snap acc = function
        | [] -> P.return (List.rev acc)
        | x :: rest ->
            let* over, oval =
              match List.assoc_opt x rset with
              | Some (ver, v) -> P.return (ver, v)
              | None -> stable_header t x
            in
            snap ((x, (over, oval, List.assoc x wbuf)) :: acc) rest
      in
      let* writes = snap [] wset in
      (* reads not overlapping the write set are checked by version *)
      let reads =
        List.filter_map
          (fun (x, (ver, _)) -> if List.mem x wset then None else Some (x, ver))
          rset
      in
      (* publish the descriptor: status, writes, reads, in three consecutive
         cells (set-up allocation + initializing stores) *)
      let m = t.machine and index = tx.id in
      let desc =
        Machine.alloc m ~name:"ostm.desc" ~index (Value.Int undecided)
      in
      let wcell = Machine.alloc m ~name:"ostm.w" ~index Value.Unit in
      let rcell = Machine.alloc m ~name:"ostm.r" ~index Value.Unit in
      if wcell <> desc + 1 || rcell <> desc + 2 then
        raise
          (Machine.Invariant
             {
               pid = tx.pid;
               slot = Machine.scheds_of m tx.pid;
               seq = Trace.length (Machine.trace m);
               what =
                 Printf.sprintf
                   "ostm: descriptor cells %d, %d, %d not consecutive" desc
                   wcell rcell;
             });
      let* () = P.write (desc + 1) (encode_writes writes) in
      let* () = P.write (desc + 2) (encode_reads reads) in
      (* also validate the reads that overlap the write set: their expected
         old version is the acquire phase's expected header, so acquisition
         itself validates them *)
      let* () = complete t desc in
      let* st = P.read_int desc in
      P.return (if st = successful then Ok () else Error `Abort)
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
