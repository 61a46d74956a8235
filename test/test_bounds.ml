(* Tests for the executable lower-bound constructions: Lemma 2, Theorem 3
   (steps and space), tightness, and the Theorem 9 reduction measurements. *)

open Ptm_core
open Ptm_tms
open Ptm_bounds

(* ------------------------------------------------------------------ *)
(* Lemma 2                                                             *)
(* ------------------------------------------------------------------ *)

(* TMs satisfying the lemma's premises must return nv, with T_phi's prefix
   indistinguishable across the Figure 1a / 1b orders. *)
let test_lemma2_conclusion () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun i ->
          let r = Lemma2.run (module T) ~i in
          (match r.Lemma2.outcome with
          | Lemma2.Returned_new -> ()
          | _ -> Alcotest.failf "%s i=%d: %a" T.name i Lemma2.pp_report r);
          Alcotest.(check bool)
            (Printf.sprintf "%s i=%d prefix indistinguishable" T.name i)
            true r.Lemma2.prefix_indistinguishable)
        [ 1; 2; 5; 10 ])
    Registry.validation_class

(* In the Figure 1a order (writer strictly before the reader), every
   strictly serializable TM must return nv — real-time order forces it. *)
let test_lemma2_fig1a_always_nv () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      let r = Lemma2.run (module T) ~i:4 in
      if r.Lemma2.outcome <> Lemma2.Blocked then
        Alcotest.(check bool)
          (T.name ^ " fig1a returns nv")
          true
          (r.Lemma2.outcome_writer_first = Lemma2.Returned_new))
    Registry.all

(* The escapes are explained by distinguishability: the non-DAP TMs make
   T_phi's prefix differ across the two orders (clock/seqlock values). *)
let test_lemma2_non_dap_distinguishable () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      let r = Lemma2.run (module T) ~i:4 in
      Alcotest.(check bool)
        (T.name ^ " prefix distinguishable")
        false r.Lemma2.prefix_indistinguishable)
    [ (module Tl2 : Tm_intf.S); (module Norec : Tm_intf.S);
      (module Mvtm : Tm_intf.S) ]

(* Multi-versioning escapes by serving the old version: the Figure 1b read
   legitimately returns the initial value (serializing T_phi first). *)
let test_lemma2_mvtm_old_value () =
  let r = Lemma2.run (module Mvtm) ~i:4 in
  Alcotest.(check bool)
    "mvtm returns the initial value" true
    (r.Lemma2.outcome = Lemma2.Returned 0)

(* The prefix reads must all return the initial value. *)
let test_lemma2_prefix () =
  let r = Lemma2.run (module Dstm) ~i:6 in
  Alcotest.(check (list int))
    "prefix initial values"
    [ 0; 0; 0; 0; 0 ]
    r.Lemma2.phi_read_prefix

(* TL2's global clock (a weak-DAP violation) makes the i-th read abort. *)
let test_lemma2_tl2_aborts () =
  let r = Lemma2.run (module Tl2) ~i:4 in
  Alcotest.(check bool)
    "tl2 aborts" true
    (r.Lemma2.outcome = Lemma2.Aborted)

(* Sgl blocks the step contention-free fragments. *)
let test_lemma2_sgl_blocked () =
  let r = Lemma2.run (module Sgl) ~i:3 in
  Alcotest.(check bool)
    "sgl blocked" true
    (r.Lemma2.outcome = Lemma2.Blocked)

(* NOrec is not weak DAP, but satisfies the lemma's conclusion anyway. *)
let test_lemma2_norec () =
  let r = Lemma2.run (module Norec) ~i:4 in
  Alcotest.(check bool)
    "norec returns nv" true
    (r.Lemma2.outcome = Lemma2.Returned_new)

let test_lemma2_rejects_bad_i () =
  Alcotest.check_raises "i=0" (Invalid_argument "Lemma2.run: i must be >= 1")
    (fun () -> ignore (Lemma2.run (module Dstm) ~i:0))

(* ------------------------------------------------------------------ *)
(* Theorem 3                                                           *)
(* ------------------------------------------------------------------ *)

let test_thm3_validation_class_meets_bounds () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun m ->
          let r = Theorem3.run (module T) ~m in
          Alcotest.(check bool)
            (Printf.sprintf "%s m=%d not blocked" T.name m)
            false r.Theorem3.blocked;
          Alcotest.(check bool)
            (Printf.sprintf "%s m=%d meets step bound (%d >= %d)" T.name m
               r.Theorem3.total_steps_max r.Theorem3.quadratic_bound)
            true
            (Theorem3.meets_step_bound r);
          Alcotest.(check bool)
            (Printf.sprintf "%s m=%d meets space bound (%d >= %d)" T.name m
               r.Theorem3.last_read_distinct r.Theorem3.space_bound)
            true
            (Theorem3.meets_space_bound r);
          Alcotest.(check (list pass)) "no serializability violations" []
            r.Theorem3.violations)
        [ 2; 4; 8 ])
    Registry.validation_class

(* Per-read worst case: the i-th read costs at least i-1 steps and touches at
   least i-1 distinct base objects. *)
let test_thm3_per_read_lower_bound () =
  let r = Theorem3.run (module Dstm) ~m:8 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "read %d steps %d >= %d" p.Theorem3.i p.Theorem3.steps_max
           (p.Theorem3.i - 1))
        true
        (p.Theorem3.steps_max >= p.Theorem3.i - 1);
      Alcotest.(check bool)
        (Printf.sprintf "read %d distinct %d >= %d" p.Theorem3.i
           p.Theorem3.distinct_max (p.Theorem3.i - 1))
        true
        (p.Theorem3.distinct_max >= p.Theorem3.i - 1))
    r.Theorem3.points

let test_thm3_tl2_escapes () =
  let r = Theorem3.run (module Tl2) ~m:8 in
  Alcotest.(check bool) "not blocked" false r.Theorem3.blocked;
  Alcotest.(check bool) "escapes steps" false (Theorem3.meets_step_bound r);
  Alcotest.(check bool) "escapes space" false (Theorem3.meets_space_bound r);
  Alcotest.(check (list pass)) "tl2 aborts rather than violating" []
    r.Theorem3.violations

let test_thm3_visread_blocked () =
  let r = Theorem3.run (module Visread) ~m:4 in
  Alcotest.(check bool) "visread blocks the adversary" true r.Theorem3.blocked

let test_thm3_norec_pays_anyway () =
  let r = Theorem3.run (module Norec) ~m:8 in
  Alcotest.(check bool) "norec meets step bound" true
    (Theorem3.meets_step_bound r)

(* Timestamp extension dissected: tl2x keeps TL2's clock (not DAP, Lemma 2
   orders distinguishable) but refuses the false abort — and thereby pays
   the quadratic validation cost after all. The escape was the abort. *)
let test_tl2x_pays_for_not_aborting () =
  let l = Lemma2.run (module Tl2x) ~i:5 in
  Alcotest.(check bool)
    "tl2x returns nv where tl2 aborts" true
    (l.Lemma2.outcome = Lemma2.Returned_new);
  Alcotest.(check bool)
    "still distinguishable (clock)" false l.Lemma2.prefix_indistinguishable;
  let r = Theorem3.run (module Tl2x) ~m:8 in
  Alcotest.(check bool) "meets the step bound" true
    (Theorem3.meets_step_bound r);
  let t = Theorem3.run (module Tl2) ~m:8 in
  Alcotest.(check bool) "plain tl2 escapes" false (Theorem3.meets_step_bound t)

(* Lemma 1 materialized: for weak-DAP TMs the disjoint-access solo writers
   never contend on a base object; the global-clock TMs make them contend. *)
let test_thm3_lemma1_contention () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      let r = Theorem3.run (module T) ~m:6 in
      Alcotest.(check bool)
        (T.name ^ " writers do not contend")
        false r.Theorem3.lemma1_contention)
    Registry.validation_class;
  List.iter
    (fun (module T : Tm_intf.S) ->
      let r = Theorem3.run (module T) ~m:6 in
      if not r.Theorem3.blocked then
        Alcotest.(check bool)
          (T.name ^ " writers contend on the shared clock")
          true r.Theorem3.lemma1_contention)
    [ (module Tl2 : Tm_intf.S); (module Norec : Tm_intf.S);
      (module Mvtm : Tm_intf.S) ]

(* ------------------------------------------------------------------ *)
(* Tightness (E5)                                                      *)
(* ------------------------------------------------------------------ *)

let test_tightness_quadratic_vs_linear () =
  let m = 32 in
  let dstm = Tightness.read_only_cost (module Dstm) ~m in
  let tl2 = Tightness.read_only_cost (module Tl2) ~m in
  let norec = Tightness.read_only_cost (module Norec) ~m in
  let visread = Tightness.read_only_cost (module Visread) ~m in
  Alcotest.(check bool) "all commit" true
    (List.for_all
       (fun c -> c.Tightness.committed)
       [ dstm; tl2; norec; visread ]);
  Alcotest.(check bool)
    (Printf.sprintf "dstm quadratic: %d >= m(m-1)/2" dstm.Tightness.total)
    true
    (dstm.Tightness.total >= m * (m - 1) / 2);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s linear: %d <= 6m" c.Tightness.tm c.Tightness.total)
        true
        (c.Tightness.total <= 6 * m))
    [ tl2; norec; visread ]

let test_tightness_scaling () =
  (* doubling m roughly quadruples dstm's cost and doubles tl2's *)
  let c16 = Tightness.read_only_cost (module Dstm) ~m:16 in
  let c32 = Tightness.read_only_cost (module Dstm) ~m:32 in
  let ratio =
    float_of_int c32.Tightness.total /. float_of_int c16.Tightness.total
  in
  Alcotest.(check bool)
    (Printf.sprintf "dstm ratio %.2f in [3,5]" ratio)
    true
    (ratio > 3.0 && ratio < 5.0);
  let t16 = Tightness.read_only_cost (module Tl2) ~m:16 in
  let t32 = Tightness.read_only_cost (module Tl2) ~m:32 in
  let tratio =
    float_of_int t32.Tightness.total /. float_of_int t16.Tightness.total
  in
  Alcotest.(check bool)
    (Printf.sprintf "tl2 ratio %.2f in [1.5,2.5]" tratio)
    true
    (tratio > 1.5 && tratio < 2.5)

(* ------------------------------------------------------------------ *)
(* Theorem 9 / Theorem 7                                               *)
(* ------------------------------------------------------------------ *)

let test_thm9_sweep_shape () =
  let rows =
    Theorem9.sweep
      ~locks:[ (module Ptm_mutex.Mcs); (module Ptm_mutex.Tas) ]
      ~ns:[ 4; 16 ] ~rounds:2 ()
  in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  let get lock n =
    List.find
      (fun r -> r.Theorem9.lock = lock && r.Theorem9.n = n)
      rows
  in
  let dsm r = List.assoc Ptm_machine.Rmr.Dsm r.Theorem9.rmr in
  (* MCS DSM total scales linearly with acquisitions *)
  let m4 = dsm (get "mcs" 4) and m16 = dsm (get "mcs" 16) in
  Alcotest.(check bool)
    (Printf.sprintf "mcs linear: %d <= 6*%d" m16 m4)
    true
    (m16 <= 6 * m4);
  (* TAS CC total grows superlinearly *)
  let wb r = List.assoc Ptm_machine.Rmr.Cc_write_back r.Theorem9.rmr in
  let t4 = wb (get "tas" 4) and t16 = wb (get "tas" 16) in
  Alcotest.(check bool)
    (Printf.sprintf "tas superlinear: %d > 4*%d" t16 t4)
    true
    (t16 > 4 * t4)

(* E4's exact totals at n = 64, its one cell with pids past 61, in the
   order CC/WT, CC/WB, DSM. A change to how the simulator stores its line
   state must leave every count as it is. *)
let test_thm9_pinned_n64 () =
  let rows =
    Theorem9.sweep
      ~locks:[ (module Ptm_mutex.Tas); (module Ptm_mutex.Mcs) ]
      ~ns:[ 64 ] ~rounds:2 ()
  in
  List.iter
    (fun (lock, expected) ->
      let r = List.find (fun r -> r.Theorem9.lock = lock) rows in
      Alcotest.(check (list int))
        (lock ^ " totals") expected
        (List.map
           (fun m -> List.assoc m r.Theorem9.rmr)
           Ptm_machine.Rmr.all_models))
    [ ("tas", [ 18_656; 18_653; 18_656 ]); ("mcs", [ 1_148; 1_147; 639 ]) ]

let test_thm7_constant_overhead () =
  (* Algorithm 1's hand-off RMRs per passage stay bounded as n grows. *)
  let per_passage n =
    let o =
      Theorem9.tm_overhead (module Oneshot) ~n ~rounds:3
        ~model:Ptm_machine.Rmr.Cc_write_back ()
    in
    o.Theorem9.handoff_per_passage
  in
  let p4 = per_passage 4 and p32 = per_passage 32 in
  Alcotest.(check bool)
    (Printf.sprintf "overhead flat: %.2f vs %.2f" p4 p32)
    true
    (p32 <= p4 *. 2.0 && p32 <= 16.0)

let test_thm7_dsm_local_spin () =
  (* In DSM, the hand-off spins on registers local to the spinner, so the
     hand-off cost per passage is small and flat. *)
  let o =
    Theorem9.tm_overhead (module Oneshot) ~n:16 ~rounds:3
      ~model:Ptm_machine.Rmr.Dsm ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "dsm handoff %.2f per passage" o.Theorem9.handoff_per_passage)
    true
    (o.Theorem9.handoff_per_passage <= 8.0)

let test_nlogn_reference () =
  Alcotest.(check bool) "nlogn(2)" true (abs_float (Theorem9.nlogn 2 -. 2.0) < 1e-9);
  Alcotest.(check bool) "nlogn(16)" true
    (abs_float (Theorem9.nlogn 16 -. 64.0) < 1e-9)

let () =
  Alcotest.run "bounds"
    [
      ( "lemma2",
        [
          Alcotest.test_case "conclusion holds" `Quick test_lemma2_conclusion;
          Alcotest.test_case "fig1a always nv" `Quick
            test_lemma2_fig1a_always_nv;
          Alcotest.test_case "non-DAP distinguishable" `Quick
            test_lemma2_non_dap_distinguishable;
          Alcotest.test_case "mvtm serves old version" `Quick
            test_lemma2_mvtm_old_value;
          Alcotest.test_case "prefix reads initial" `Quick test_lemma2_prefix;
          Alcotest.test_case "tl2 aborts" `Quick test_lemma2_tl2_aborts;
          Alcotest.test_case "sgl blocked" `Quick test_lemma2_sgl_blocked;
          Alcotest.test_case "norec returns nv" `Quick test_lemma2_norec;
          Alcotest.test_case "rejects i=0" `Quick test_lemma2_rejects_bad_i;
        ] );
      ( "theorem3",
        [
          Alcotest.test_case "validation class meets bounds" `Slow
            test_thm3_validation_class_meets_bounds;
          Alcotest.test_case "per-read lower bound" `Quick
            test_thm3_per_read_lower_bound;
          Alcotest.test_case "tl2 escapes" `Quick test_thm3_tl2_escapes;
          Alcotest.test_case "visread blocks" `Quick test_thm3_visread_blocked;
          Alcotest.test_case "norec pays anyway" `Quick
            test_thm3_norec_pays_anyway;
          Alcotest.test_case "lemma 1 contention" `Quick
            test_thm3_lemma1_contention;
          Alcotest.test_case "tl2x pays for not aborting" `Quick
            test_tl2x_pays_for_not_aborting;
        ] );
      ( "tightness",
        [
          Alcotest.test_case "quadratic vs linear" `Quick
            test_tightness_quadratic_vs_linear;
          Alcotest.test_case "scaling ratios" `Quick test_tightness_scaling;
        ] );
      ( "theorem9",
        [
          Alcotest.test_case "sweep shape" `Quick test_thm9_sweep_shape;
          Alcotest.test_case "n = 64 totals pinned" `Quick test_thm9_pinned_n64;
          Alcotest.test_case "thm7 constant overhead" `Quick
            test_thm7_constant_overhead;
          Alcotest.test_case "thm7 dsm local spin" `Quick
            test_thm7_dsm_local_spin;
          Alcotest.test_case "nlogn reference" `Quick test_nlogn_reference;
        ] );
    ]
