(* Tests for workload generation: determinism, shape, uniqueness of written
   values, and the fixed-shape generators. *)

open Ptm_core

let test_random_deterministic () =
  let mk () =
    Workload.random ~seed:9 ~nprocs:3 ~nobjs:4 ~txs_per_proc:2 ~ops_per_tx:3 ()
  in
  Alcotest.(check bool) "same seed same workload" true (mk () = mk ());
  let other =
    Workload.random ~seed:10 ~nprocs:3 ~nobjs:4 ~txs_per_proc:2 ~ops_per_tx:3 ()
  in
  Alcotest.(check bool) "different seed differs" false (mk () = other)

let test_random_shape () =
  let w =
    Workload.random ~seed:1 ~nprocs:4 ~nobjs:5 ~txs_per_proc:3 ~ops_per_tx:2 ()
  in
  Alcotest.(check int) "procs" 4 (Array.length w.Workload.procs);
  Array.iter
    (fun txs ->
      Alcotest.(check int) "txs per proc" 3 (List.length txs);
      List.iter
        (fun ops ->
          Alcotest.(check int) "ops per tx" 2 (List.length ops);
          List.iter
            (fun op ->
              match op with
              | Workload.R x -> Alcotest.(check bool) "obj range" true (x >= 0 && x < 5)
              | Workload.W (x, _) ->
                  Alcotest.(check bool) "obj range" true (x >= 0 && x < 5))
            ops)
        txs)
    w.Workload.procs

let test_unique_writes () =
  let w =
    Workload.random ~seed:2 ~nprocs:4 ~nobjs:3 ~txs_per_proc:4 ~ops_per_tx:4
      ~write_ratio:1.0 ()
  in
  let values =
    Array.to_list w.Workload.procs
    |> List.concat_map (fun txs -> List.concat txs)
    |> List.filter_map (function Workload.W (_, v) -> Some v | _ -> None)
  in
  Alcotest.(check int)
    "all written values distinct"
    (List.length values)
    (List.length (List.sort_uniq compare values));
  Alcotest.(check bool)
    "values avoid the initial value" true
    (not (List.mem Tm_intf.init_value values))

let test_write_ratio_extremes () =
  let all_reads =
    Workload.random ~seed:3 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:4
      ~write_ratio:0.0 ()
  in
  let ops =
    Array.to_list all_reads.Workload.procs |> List.concat_map List.concat
  in
  Alcotest.(check bool)
    "ratio 0 gives only reads" true
    (List.for_all (function Workload.R _ -> true | _ -> false) ops);
  let all_writes =
    Workload.random ~seed:3 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:4
      ~write_ratio:1.0 ()
  in
  let ops =
    Array.to_list all_writes.Workload.procs |> List.concat_map List.concat
  in
  Alcotest.(check bool)
    "ratio 1 gives only writes" true
    (List.for_all (function Workload.W _ -> true | _ -> false) ops)

let test_read_only_scaling () =
  let w = Workload.read_only_scaling ~readers:3 ~nobjs:4 in
  Alcotest.(check int) "readers" 3 (Array.length w.Workload.procs);
  Array.iter
    (fun txs ->
      match txs with
      | [ ops ] ->
          Alcotest.(check int) "reads every object once" 4 (List.length ops);
          List.iteri
            (fun i op ->
              match op with
              | Workload.R x -> Alcotest.(check int) "in order" i x
              | Workload.W _ -> Alcotest.fail "unexpected write")
            ops
      | _ -> Alcotest.fail "expected a single transaction")
    w.Workload.procs

let test_hotspot_bias () =
  let w =
    Workload.random ~seed:4 ~nprocs:4 ~nobjs:10 ~txs_per_proc:10 ~ops_per_tx:5
      ~hotspot:(2, 0.9) ()
  in
  let ops = Array.to_list w.Workload.procs |> List.concat_map List.concat in
  let hot =
    List.length
      (List.filter
         (fun op ->
           match op with
           | Workload.R x | Workload.W (x, _) -> x < 2)
         ops)
  in
  let total = List.length ops in
  (* expectation: 0.9 + 0.1 * (2/10) = 0.92 of ops hit the 2 hot objects *)
  Alcotest.(check bool)
    (Printf.sprintf "hot fraction %d/%d biased" hot total)
    true
    (float_of_int hot /. float_of_int total > 0.8);
  (* a hotspot covering everything (h >= nobjs) used to silently degrade to
     uniform; it is a configuration slip and now a typed error *)
  let expect_bad_hotspot name f =
    match f () with
    | (_ : Workload.t) -> Alcotest.fail (name ^ ": expected Invalid_spec")
    | exception Workload.Invalid_spec (Workload.Bad_hotspot _) -> ()
  in
  expect_bad_hotspot "h = nobjs" (fun () ->
      Workload.random ~seed:4 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3
        ~hotspot:(3, 0.9) ());
  expect_bad_hotspot "h = 0" (fun () ->
      Workload.random ~seed:4 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3
        ~hotspot:(0, 0.9) ());
  expect_bad_hotspot "p > 1" (fun () ->
      Workload.random ~seed:4 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3
        ~hotspot:(2, 1.5) ());
  expect_bad_hotspot "p < 0" (fun () ->
      Workload.random ~seed:4 ~nprocs:2 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3
        ~hotspot:(2, -0.1) ())

let test_zipf_golden () =
  (* Golden pin: the exact op sequence of a seeded Zipfian workload. Any
     change to the CDF construction, the draw order, or the RNG consumption
     pattern shows up here as a diff, not as a silent distribution shift. *)
  let w =
    Workload.random ~seed:11 ~nprocs:2 ~nobjs:8 ~txs_per_proc:2 ~ops_per_tx:3
      ~dist:(Workload.Zipf 0.9) ()
  in
  let render ops =
    String.concat " "
      (List.map
         (function
           | Workload.R x -> Printf.sprintf "R%d" x
           | Workload.W (x, v) -> Printf.sprintf "W%d:%d" x v)
         ops)
  in
  let got =
    Array.to_list w.Workload.procs
    |> List.map (fun txs -> String.concat " | " (List.map render txs))
  in
  Alcotest.(check (list string))
    "seeded zipf workload is pinned"
    [ "W3:1 W0:2 R0 | W0:3 W5:4 R0"; "R0 W0:5 W0:6 | W0:7 R3 R0" ]
    got

let test_zipf_bias () =
  let w =
    Workload.random ~seed:5 ~nprocs:4 ~nobjs:16 ~txs_per_proc:20 ~ops_per_tx:5
      ~dist:(Workload.Zipf 1.0) ()
  in
  let ops = Array.to_list w.Workload.procs |> List.concat_map List.concat in
  let low =
    List.length
      (List.filter
         (function Workload.R x | Workload.W (x, _) -> x < 4)
         ops)
  in
  let total = List.length ops in
  (* Zipf(1) over 16 objects puts ~62% of the mass on the first 4 *)
  Alcotest.(check bool)
    (Printf.sprintf "zipf mass on low objects (%d/%d)" low total)
    true
    (float_of_int low /. float_of_int total > 0.5);
  (match
     Workload.random ~seed:5 ~nprocs:1 ~nobjs:4 ~txs_per_proc:1 ~ops_per_tx:1
       ~dist:(Workload.Zipf (-1.0)) ()
   with
  | (_ : Workload.t) -> Alcotest.fail "negative theta: expected Invalid_spec"
  | exception Workload.Invalid_spec (Workload.Bad_zipf _) -> ());
  (* theta = 0 must coincide with the uniform sampler draw-for-draw *)
  let a =
    Workload.random ~seed:6 ~nprocs:2 ~nobjs:5 ~txs_per_proc:3 ~ops_per_tx:4
      ~dist:(Workload.Zipf 0.0) ()
  in
  let b =
    Workload.random ~seed:6 ~nprocs:2 ~nobjs:5 ~txs_per_proc:3 ~ops_per_tx:4 ()
  in
  (* same seed, same shape — the object choices differ only via the draw
     mechanism (CDF lookup vs int draw), so pin the distributions agree on
     the CDF itself instead *)
  Alcotest.(check int)
    "same shape" (Array.length a.Workload.procs)
    (Array.length b.Workload.procs);
  let cdf = Workload.Sampler.zipf_cdf ~theta:0.0 ~nobjs:4 in
  Alcotest.(check (list (float 1e-9)))
    "theta 0 cdf is uniform" [ 0.25; 0.5; 0.75; 1.0 ]
    (Array.to_list cdf)

let test_bank_touches_two_accounts () =
  let w = Workload.bank ~nprocs:2 ~naccounts:4 ~transfers_per_proc:5 ~seed:7 in
  Array.iter
    (fun txs ->
      List.iter
        (fun ops ->
          let objs =
            List.sort_uniq compare
              (List.map
                 (function Workload.R x -> x | Workload.W (x, _) -> x)
                 ops)
          in
          Alcotest.(check int) "two distinct accounts" 2 (List.length objs))
        txs)
    w.Workload.procs

(* A bad size is rejected up front, with a message naming the field. *)
let rejects field f =
  match f () with
  | (_ : Workload.t) -> Alcotest.failf "%s: expected Invalid_argument" field
  | exception Invalid_argument msg ->
      let n = String.length field in
      let rec has i =
        i + n <= String.length msg
        && (String.equal (String.sub msg i n) field || has (i + 1))
      in
      Alcotest.(check bool) (field ^ " named in: " ^ msg) true (has 0)

let test_random_bad_sizes () =
  rejects "txs_per_proc" (fun () ->
      Workload.random ~seed:1 ~nprocs:2 ~nobjs:4 ~txs_per_proc:(-1)
        ~ops_per_tx:3 ());
  rejects "nobjs" (fun () ->
      Workload.random ~seed:1 ~nprocs:2 ~nobjs:0 ~txs_per_proc:1 ~ops_per_tx:3
        ())

let test_bank_bad_sizes () =
  rejects "naccounts" (fun () ->
      Workload.bank ~nprocs:2 ~naccounts:1 ~transfers_per_proc:1 ~seed:1);
  rejects "nprocs" (fun () ->
      Workload.bank ~nprocs:(-1) ~naccounts:2 ~transfers_per_proc:1 ~seed:1);
  rejects "transfers_per_proc" (fun () ->
      Workload.bank ~nprocs:2 ~naccounts:2 ~transfers_per_proc:(-3) ~seed:1);
  rejects "readers" (fun () ->
      Workload.read_only_scaling ~readers:(-1) ~nobjs:2)

let () =
  Alcotest.run "workload"
    [
      ( "generation",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "shape" `Quick test_random_shape;
          Alcotest.test_case "unique writes" `Quick test_unique_writes;
          Alcotest.test_case "write ratio extremes" `Quick
            test_write_ratio_extremes;
          Alcotest.test_case "read-only scaling" `Quick test_read_only_scaling;
          Alcotest.test_case "hotspot bias" `Quick test_hotspot_bias;
          Alcotest.test_case "zipf golden" `Quick test_zipf_golden;
          Alcotest.test_case "zipf bias" `Quick test_zipf_bias;
          Alcotest.test_case "bank" `Quick test_bank_touches_two_accounts;
          Alcotest.test_case "bad sizes rejected" `Quick test_random_bad_sizes;
          Alcotest.test_case "bank bad sizes rejected" `Quick
            test_bank_bad_sizes;
        ] );
    ]
