(** Tournament lock: a binary arbitration tree of two-process Peterson
    locks. A passage acquires ⌈log₂ n⌉ nodes, each O(1) remote accesses in
    CC models, so the total RMR cost over n acquisitions is Θ(n log n) — the
    shape of the Theorem 9 lower bound. Spins touch the rival's flag, so the
    lock is not local-spin in DSM (see {!Yang_anderson} for the DSM-local
    variant). Uses reads and writes only. *)

open Ptm_machine

let name = "tournament"

type node = { flag : Memory.addr array; turn : Memory.addr }

type t = {
  nodes : node array;  (* heap-indexed, 1 .. leaves-1 *)
  leaves : int;  (* power of two >= nprocs *)
}

let rec pow2 n = if n <= 1 then 1 else 2 * pow2 ((n + 1) / 2)

let create machine ~nprocs =
  let leaves = max 2 (pow2 nprocs) in
  let mk_node i =
    {
      flag =
        Array.init 2 (fun s ->
            Machine.alloc machine
              ~name:(Printf.sprintf "trn.flag[%d][%d]" i s)
              (Value.Bool false));
      turn = Machine.alloc machine ~name:"trn.turn" ~index:i (Value.Int 0);
    }
  in
  { nodes = Array.init leaves mk_node (* index 0 unused *); leaves }

(* The (node, side) pairs on pid's path, leaf upwards. *)
let path t pid =
  let rec go acc node =
    if node <= 1 then List.rev acc
    else go ((node / 2, node land 1) :: acc) (node / 2)
  in
  go [] (t.leaves + pid)

let acquire t (v, side) =
  let node = t.nodes.(v) in
  Proc.write node.flag.(side) (Value.Bool true);
  Proc.write node.turn (Value.Int side);
  let rec spin () =
    if Proc.read_bool node.flag.(1 - side) then
      if Proc.read_int node.turn = side then spin ()
  in
  spin ()

let release t (v, side) = Proc.write t.nodes.(v).flag.(side) (Value.Bool false)

let enter t ~pid = List.iter (acquire t) (path t pid)
let exit_cs t ~pid = List.iter (release t) (List.rev (path t pid))
