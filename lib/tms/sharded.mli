(** Sharded multi-TM: [C.shards] independent inner TM instances keyed by
    object hash (object [x] lives in shard [x mod shards]), composed into a
    single TM by a two-phase protocol over one versioned lock word per
    shard (a version bumped once per publication, and a state: free, held
    to publish, or held to validate):

    - uncached t-reads are one-shot {e mini-transactions} against the
      owning shard, sampled inside a stable window (the shard's word read
      before and after, neither held to publish, both at one version; a
      hold to validate changes no data, so a window may pass one), and
      value-validated NOrec-style whenever a touched shard's word leaves
      the version the transaction last validated it at. Validation is
      selective: it re-samples only the cached reads of shards whose
      version moved;
    - t-writes are buffered; try_commit of an updating transaction holds
      every touched shard, written or read, in ascending order, each by a
      CAS from the version it last validated. A CAS that lands proves the
      shard's cached reads current; only a shard whose CAS fails is waited
      for, and re-read with bare mini-reads if its version moved. It then
      publishes each written shard's writes as a write-only inner
      transaction and, after the last, releases each shard with one write,
      a written one at the next version.

    Single-shard transactions take the fast path — a read-only commit
    costs zero events and a transaction touching one shard holds one word;
    only genuinely cross-shard commits pay multi-shard coordination. With
    [shards = 1] every operation passes straight through to the inner TM,
    event for event ({!Make} with [shards = 1] is trace-identical to its
    argument — the registry differential test pins this).

    The composition is opaque for any opaque inner TM (crashes included: a
    word-holder crash starves that shard but cannot expose a torn commit)
    but deliberately forfeits the finer properties — sharding is the
    load-engine throughput play, not a progress result. *)

module type Config = sig
  val shards : int
end

(** The protocol is one body over the program signature
    {!Ptm_machine.Proc.S}; [Make] and [Make_step] are its direct and step
    instances, and run the identical event sequence over the two instances
    of one inner TM. *)

module Make (_ : Config) (_ : Ptm_core.Tm_intf.S) : Ptm_core.Tm_intf.S

module Make_step (_ : Config) (_ : Ptm_core.Tm_intf.S_step) :
  Ptm_core.Tm_intf.S_step
