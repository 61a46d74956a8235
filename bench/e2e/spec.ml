(* What the benchmark declares: its workloads and every metric it prints.
   BENCHMARK.json at the repository root carries the names, units,
   directions and end-to-end bounds in a fixed format; this table
   adds what that format has no room for (which layer a metric belongs to
   and which end-to-end number it should move), and [smoke] checks the two
   agree. *)

let workloads = [ "load-read"; "load-write"; "load-sharded"; "explore-dpor" ]

type kind = E2e | Layer
type better = Lower | Higher

(* How [compare] judges a metric of two [run] result sets. *)
type judge =
  | Timed  (** within its bound is the same; beyond it, the rep ranges decide *)
  | Counted
      (** deterministic for a seed: any change is decided when both sets
          share the seed; across seeds, judged like [Timed] *)
  | Info
      (** reported, not judged: per-layer metrics, and [heap_peak_mb],
          which in [run] carries the other workloads' heap residue *)

type metric = {
  name : string;
  kind : kind;
  unit : string;
  better : better;
  judge : judge;
  moves : string option;
      (** a per-layer metric: the end-to-end metric and workload it should
          move *)
}

let e2e name unit better judge = { name; kind = E2e; unit; better; judge; moves = None }

let layer name unit better moves =
  { name; kind = Layer; unit; better; judge = Info; moves = Some moves }

let metrics =
  [
    e2e "setup_s" "s" Lower Timed;
    e2e "verify_s" "s" Lower Timed;
    e2e "tx_per_s" "tx/s" Higher Timed;
    e2e "commit_p50_steps" "steps" Lower Counted;
    e2e "commit_p99_steps" "steps" Lower Counted;
    e2e "heap_peak_mb" "MiB" Lower Info;
    layer "load.abort_rate" "ratio" Lower
      "tx_per_s, commit_p99_steps on load-read and load-sharded";
    layer "load.wasted_frac" "ratio" Lower
      "tx_per_s, commit_p99_steps on load-read and load-sharded";
    layer "gc.minor_words_per_commit" "words" Lower "tx_per_s on every workload";
    layer "gc.major_collections" "count" Lower "heap_peak_mb, tx_per_s on every workload";
    layer "machine.steps_per_commit" "steps" Lower "tx_per_s, commit_p* on load-*";
    layer "machine.step_ns" "ns" Lower "verify_s on explore-dpor, tx_per_s on load-read";
    layer "machine.feed_ns" "ns" Lower "verify_s on explore-dpor";
    layer "machine.restart_ns" "ns" Lower "verify_s on explore-dpor";
    layer "memory.cells" "count" Lower "heap_peak_mb on load-*";
    layer "tm.steps_per_read" "steps" Lower "commit_p50/p99_steps on that TM's workload";
    layer "tm.steps_per_write" "steps" Lower "commit_p50/p99_steps on that TM's workload";
    layer "tm.steps_per_commit" "steps" Lower "commit_p50/p99_steps on that TM's workload";
    layer "runner.events" "count" Lower "the monitor's cost, tx_per_s on load-write";
    layer "rmr.share" "ratio" Lower "tx_per_s on load-read only";
    layer "rmr.ns_per_event" "ns" Lower "tx_per_s on load-read only";
    layer "rmr.cc_wt_per_commit" "count" Lower "tx_per_s on load-read only";
    layer "rmr.cc_wb_per_commit" "count" Lower "tx_per_s on load-read only";
    layer "rmr.dsm_per_commit" "count" Lower "tx_per_s on load-read only";
    layer "monitor.share" "ratio" Lower "tx_per_s on load-write";
    layer "monitor.replay_s" "s" Lower "tx_per_s on load-write";
    layer "monitor.events_per_s" "1/s" Higher "tx_per_s on load-write";
    layer "monitor.max_frontier" "count" Lower
      "none end-to-end: overlapping histories are only replayed (load-read, load-sharded); load-write's frontier is 1";
    layer "monitor.max_resident" "count" Lower "tx_per_s, heap_peak_mb on load-write";
    layer "monitor.decided_frac" "ratio" Higher
      "none end-to-end: the checker's progress on the replayed load-read and load-sharded histories";
    layer "explore.leaves" "count" Lower "verify_s on explore-dpor";
    layer "explore.pruned" "count" Lower "verify_s on explore-dpor";
    layer "explore.replays" "count" Lower "verify_s on explore-dpor";
    layer "explore.exec_steps" "steps" Lower "verify_s on explore-dpor";
    layer "explore.fed_steps" "steps" Lower "verify_s on explore-dpor";
    layer "explore.exec_share" "ratio" Lower "verify_s on explore-dpor";
    layer "explore.replay_share" "ratio" Lower "verify_s on explore-dpor";
    layer "bench.trace_overhead" "ratio" Lower "none: the cost of the traced pass itself";
  ]

let find name = List.find_opt (fun m -> m.name = name) metrics
let of_kind k = List.filter (fun m -> m.kind = k) metrics
let kind_name = function E2e -> "e2e" | Layer -> "layer"
let better_name = function Lower -> "lower" | Higher -> "higher"

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
