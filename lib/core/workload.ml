type op_spec = R of int | W of int * int

type tx_spec = op_spec list

type t = { nobjs : int; procs : tx_spec list array }

type dist = Uniform | Zipf of float

type spec_error =
  | Bad_hotspot of { h : int; p : float; nobjs : int }
  | Bad_zipf of { theta : float }

exception Invalid_spec of spec_error

let spec_error_to_string = function
  | Bad_hotspot { h; p; nobjs } ->
      Printf.sprintf
        "invalid hotspot (h=%d, p=%g) for %d objects: need 1 <= h < nobjs and \
         0 <= p <= 1"
        h p nobjs
  | Bad_zipf { theta } ->
      Printf.sprintf "invalid Zipf theta %g: need theta >= 0" theta

let () =
  Printexc.register_printer (function
    | Invalid_spec e -> Some ("Workload.Invalid_spec: " ^ spec_error_to_string e)
    | _ -> None)

let pp_op ppf = function
  | R x -> Fmt.pf ppf "R(%d)" x
  | W (x, v) -> Fmt.pf ppf "W(%d,%d)" x v

let pp ppf t =
  Fmt.pf ppf "@[<v>workload: %d objects@," t.nobjs;
  Array.iteri
    (fun pid txs ->
      Fmt.pf ppf "p%d: %a@," pid
        (Fmt.list ~sep:(Fmt.any "; ")
           (Fmt.brackets (Fmt.list ~sep:Fmt.sp pp_op)))
        txs)
    t.procs;
  Fmt.pf ppf "@]"

module Sampler = struct
  type t = {
    nobjs : int;
    hotspot : (int * float) option;
    cdf : float array option;  (* cumulative Zipf weights, [None] = uniform *)
  }

  (* Zipf(theta) over ranks 1..n: weight of object k is 1/(k+1)^theta.
     Precomputed once as a cumulative distribution; each draw is one float
     plus a binary search, so sampling stays deterministic under the seed
     and O(log nobjs) however skewed the mix. *)
  let zipf_cdf ~theta ~nobjs =
    let w = Array.init nobjs (fun k -> 1.0 /. (float_of_int (k + 1) ** theta)) in
    let acc = ref 0.0 in
    let cum =
      Array.map
        (fun x ->
          acc := !acc +. x;
          !acc)
        w
    in
    let total = cum.(nobjs - 1) in
    Array.map (fun x -> x /. total) cum

  let check ?hotspot ~dist ~nobjs () =
    if nobjs < 1 then invalid_arg "Workload.Sampler: nobjs must be >= 1";
    (match hotspot with
    | Some (h, p) when h < 1 || h >= nobjs || p < 0.0 || p > 1.0 ->
        raise (Invalid_spec (Bad_hotspot { h; p; nobjs }))
    | _ -> ());
    match dist with
    | Zipf theta when theta < 0.0 || not (Float.is_finite theta) ->
        raise (Invalid_spec (Bad_zipf { theta }))
    | Uniform | Zipf _ -> ()

  let make ?hotspot ~dist ~nobjs () =
    check ?hotspot ~dist ~nobjs ();
    let cdf =
      match dist with
      | Uniform -> None
      | Zipf theta -> Some (zipf_cdf ~theta ~nobjs)
    in
    { nobjs; hotspot; cdf }

  let search cdf u =
    (* smallest index whose cumulative weight exceeds [u] *)
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

  let draw t rng =
    match t.hotspot with
    | Some (h, p) when Random.State.float rng 1.0 < p -> Random.State.int rng h
    | _ -> (
        match t.cdf with
        | None -> Random.State.int rng t.nobjs
        | Some cdf -> search cdf (Random.State.float rng 1.0))
end

(* Reject a count below [k] with an [Invalid_argument] naming the generator
   and the field. *)
let at_least gen k field v =
  if v < k then
    invalid_arg (Printf.sprintf "Workload.%s: %s must be >= %d" gen field k)

let random ~seed ~nprocs ~nobjs ~txs_per_proc ~ops_per_tx
    ?(write_ratio = 0.5) ?(unique_writes = true) ?hotspot ?(dist = Uniform) () =
  let at_least = at_least "random" in
  at_least 1 "nobjs" nobjs;
  at_least 0 "nprocs" nprocs;
  at_least 0 "txs_per_proc" txs_per_proc;
  at_least 0 "ops_per_tx" ops_per_tx;
  let sampler = Sampler.make ?hotspot ~dist ~nobjs () in
  let rng = Random.State.make [| seed |] in
  let counter = ref 0 in
  let fresh_value () =
    if unique_writes then begin
      incr counter;
      !counter
    end
    else 1 + Random.State.int rng 5
  in
  let op () =
    let x = Sampler.draw sampler rng in
    if Random.State.float rng 1.0 < write_ratio then W (x, fresh_value ())
    else R x
  in
  let tx () = List.init ops_per_tx (fun _ -> op ()) in
  let procs =
    Array.init nprocs (fun _ -> List.init txs_per_proc (fun _ -> tx ()))
  in
  { nobjs; procs }

let bank ~nprocs ~naccounts ~transfers_per_proc ~seed =
  at_least "bank" 2 "naccounts" naccounts;
  at_least "bank" 0 "nprocs" nprocs;
  at_least "bank" 0 "transfers_per_proc" transfers_per_proc;
  let rng = Random.State.make [| seed |] in
  let tx () =
    let a = Random.State.int rng naccounts in
    let b = (a + 1 + Random.State.int rng (naccounts - 1)) mod naccounts in
    (* The runner interprets [W (x, v)] literally; bank transfers need
       read-dependent writes, so examples/bank.ml drives them through
       Runner.Make directly. This spec form only fixes which accounts each
       transfer touches (used by shape tests). *)
    [ R a; R b; W (a, 0); W (b, 0) ]
  in
  {
    nobjs = naccounts;
    procs = Array.init nprocs (fun _ -> List.init transfers_per_proc (fun _ -> tx ()));
  }

let read_only_scaling ~readers ~nobjs =
  at_least "read_only_scaling" 0 "readers" readers;
  at_least "read_only_scaling" 0 "nobjs" nobjs;
  {
    nobjs;
    procs = Array.init readers (fun _ -> [ List.init nobjs (fun x -> R x) ]);
  }
