(** Commit-time (lazy) variant of the orec TM: writes are buffered and locks
    taken only inside [tryC], in global object order. Reads are invisible and
    incrementally validated, as in {!Dstm}. Strictly data-partitioned, hence
    weak DAP. The eager/lazy pair isolates the locking strategy as an
    ablation: both exhibit the Theorem 3 quadratic validation cost. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
