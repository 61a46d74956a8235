(** DSTM-style progressive TM: encounter-time (eager) write locking,
    invisible reads with {e incremental validation} of the whole read set on
    every t-read — the classical implementation matching the Theorem 3 upper
    bound (the paper cites DSTM [16] and [19] for tightness).

    Per t-object metadata only (strictly data-partitioned, hence weak DAP);
    reads apply only trivial primitives (invisible); aborts happen only on
    observed conflicts (progressive); every read revalidates the read set, so
    a read-only transaction with [m] reads performs Θ(m²) steps. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
