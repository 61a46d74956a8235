(** TL2 (Dice, Shalev, Shavit — DISC 2006, the paper's reference [7]).

    A global version clock lets every t-read validate in O(1) steps against
    the snapshot version, with no read-set revalidation: reads cost O(m)
    total, escaping the Theorem 3 quadratic bound. The price is exactly the
    theorem's premise: the shared clock makes the TM {e not} disjoint-access
    parallel. Reads are invisible; aborts happen only on observed conflicts
    (progressive). The commit-time clock bump uses fetch-and-add, so TL2 is
    also outside the read/write/conditional class of Theorem 9. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
