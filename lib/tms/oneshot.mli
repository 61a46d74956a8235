(** The single-t-object strongly progressive TM used by the Theorem 9
    reduction (Section 5): each t-object is one base object packing a version
    and a value, read with a plain load and committed with a single CAS.

    Uses only read and conditional primitives — exactly the
    read/write/conditional class of Theorem 9. Strongly progressive: a CAS
    can fail only because a concurrent conflicting transaction's CAS
    committed. Transactions are restricted to a single t-object
    ([|Dset(T)| <= 1], the paper's "accesses a single t-object" class);
    violating the restriction raises [Invalid_argument]. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
