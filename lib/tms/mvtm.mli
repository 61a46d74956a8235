(** Multi-version TM (after Perelman, Fan, Keidar — PODC 2010, the paper's
    reference [22] on multi-versioning and DAP).

    Every t-object keeps its full version history (a list of
    [(version, value)] pairs packed into one base object), stamped by a
    global version clock. A transaction reads the newest version no newer
    than its snapshot, so {e read-only transactions never abort and never
    validate} — the strongest possible progress for readers, at the price of
    the global clock (not DAP, like TL2) and unbounded version storage.
    Updating transactions lock their write sets, validate their read sets
    against the snapshot, and append new versions.

    In the paper's design space this TM shows that multi-versioning buys
    wait-free read-only transactions with O(m) reads, but only by violating
    weak DAP — Theorem 3 survives multi-versioning. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
