(** Yang–Anderson tournament lock (Yang & Anderson, Distributed Computing
    1995): an arbitration tree whose two-process components make waiters spin
    on a {e per-process, per-node} flag owned by the spinning process — local
    spinning in both CC and DSM. Θ(log n) RMRs per passage using reads and
    writes only: the classical upper bound facing the Ω(n log n)
    mutual-exclusion lower bound the paper reduces to (its reference [3]).

    Two structural points matter for correctness in the fully asynchronous
    model and are exercised by the random-schedule tests:
    - the spin flag is per {e node}: a single per-process flag admits stale
      signals from a lower node spuriously waking a waiter at a higher node
      (observed as deadlock under random schedules);
    - nodes are released from the {e root down}, so that a slow rival whose
      signal write is still pending keeps its subtree blocked and the signal
      cannot land in a later passage.

    We spend O(n) space per node where the original achieves O(1) amortized;
    the RMR behaviour (the measured quantity) is identical. *)

open Ptm_machine

let name = "yang-anderson"

let nobody = Value.Pid (-1)

type node = {
  c : Memory.addr array;  (* competitor slot per side *)
  t_var : Memory.addr;  (* tie-breaker *)
  p_flag : Memory.addr array;  (* p_flag.(p) owned by p; 0 | 1 | 2 *)
}

type t = { nodes : node array; leaves : int }

let rec pow2 n = if n <= 1 then 1 else 2 * pow2 ((n + 1) / 2)

let create machine ~nprocs =
  let leaves = max 2 (pow2 nprocs) in
  let mk_node i =
    {
      c =
        Array.init 2 (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "ya.c[%d][%d]" i s)
              nobody);
      t_var = Machine.alloc machine ~name:"ya.t" ~index:i nobody;
      p_flag =
        Array.init nprocs (fun p ->
            Machine.alloc machine ~owner:p
              ~name:(Printf.sprintf "ya.p[%d][%d]" i p)
              (Value.Int 0));
    }
  in
  { nodes = Array.init leaves mk_node; leaves }

let path t pid =
  let rec go acc node =
    if node <= 1 then List.rev acc
    else go ((node / 2, node land 1) :: acc) (node / 2)
  in
  go [] (t.leaves + pid)

let acquire t ~pid (v, side) =
  let node = t.nodes.(v) in
  Proc.write node.c.(side) (Value.Pid pid);
  Proc.write node.t_var (Value.Pid pid);
  Proc.write node.p_flag.(pid) (Value.Int 0);
  let rival = Value.to_pid (Proc.read node.c.(1 - side)) in
  if rival >= 0 && Value.to_pid (Proc.read node.t_var) = pid then begin
    if Proc.read_int node.p_flag.(rival) = 0 then
      Proc.write node.p_flag.(rival) (Value.Int 1);
    while Proc.read_int node.p_flag.(pid) = 0 do
      ()
    done;
    if Value.to_pid (Proc.read node.t_var) = pid then
      while Proc.read_int node.p_flag.(pid) <= 1 do
        ()
      done
  end

let release t ~pid (v, side) =
  let node = t.nodes.(v) in
  Proc.write node.c.(side) nobody;
  let rival = Value.to_pid (Proc.read node.t_var) in
  if rival <> pid && rival >= 0 then Proc.write node.p_flag.(rival) (Value.Int 2)

let enter t ~pid = List.iter (acquire t ~pid) (path t pid)

(* Root-down release order (reverse of acquisition) — load-bearing, see the
   module comment. *)
let exit_cs t ~pid = List.iter (release t ~pid) (List.rev (path t pid))
