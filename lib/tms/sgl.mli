(** Single-global-lock TM: every transaction runs under one test-and-set
    lock, reading and writing data in place.

    Transactions never abort, so the TM is trivially strongly progressive and
    opaque — at the cost of zero parallelism, visible reads (the lock
    acquisition is a nontrivial event inside the first t-operation) and no
    disjoint-access parallelism. The baseline and ablation anchor. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
