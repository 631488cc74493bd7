(* A compatibility shim over [Tdb_obs.Metric] raw counters.

   The per-pool counters are raw (ungated): the paper's page-I/O numbers
   must stay exact whether or not observability is enabled.  Each count
   additionally feeds the registered global counters (gated, one branch
   when disabled) and charges the page to the current trace span. *)

module Metric = Tdb_obs.Metric
module Trace = Tdb_obs.Trace

type t = {
  r : Metric.counter;
  ev_w : Metric.counter;  (* writes forced by eviction *)
  sy_w : Metric.counter;  (* writes from explicit flush/sync *)
  sk : Metric.counter;  (* pages a fence-bounded walk skipped unread *)
}

let global_reads = Metric.counter "tdb_io_page_reads_total"

let global_eviction_writes =
  Metric.counter ~labels:[ ("kind", "eviction") ] "tdb_io_page_writes_total"

let global_sync_writes =
  Metric.counter ~labels:[ ("kind", "sync") ] "tdb_io_page_writes_total"

let create () =
  { r = Metric.raw (); ev_w = Metric.raw (); sy_w = Metric.raw (); sk = Metric.raw () }

let reads t = Metric.count t.r
let eviction_writes t = Metric.count t.ev_w
let sync_writes t = Metric.count t.sy_w
let writes t = eviction_writes t + sync_writes t
let total t = reads t + writes t
let skips t = Metric.count t.sk

let count_read t =
  Metric.incr t.r;
  Metric.incr global_reads;
  Trace.note_read ()

let count_eviction_write t =
  Metric.incr t.ev_w;
  Metric.incr global_eviction_writes;
  Trace.note_write ()

let count_sync_write t =
  Metric.incr t.sy_w;
  Metric.incr global_sync_writes;
  Trace.note_write ()

(* Raw only: [Time_fence.note_skipped] feeds the metric and the span. *)
let count_skip t = Metric.incr t.sk

(* Fold a worker partition's private stats into the owning pool's.  The
   worker already fed the registered global counters at count time (they
   are atomic), so only the raw per-pool counters are added here; trace
   attribution was a no-op on the worker domain, so by default the folded
   pages are charged to the calling domain's current span now, keeping the
   profile tree summing to the query's page total.  A caller that builds
   its own per-partition child spans (the parallel scan path) passes
   ~trace:false to keep the pages from being double-counted. *)
let absorb ?(trace = true) ~into src =
  let r = reads src and ev = eviction_writes src and sy = sync_writes src in
  Metric.add into.r r;
  Metric.add into.ev_w ev;
  Metric.add into.sy_w sy;
  Metric.add into.sk (skips src);
  if trace then begin
    for _ = 1 to r do
      Trace.note_read ()
    done;
    for _ = 1 to ev + sy do
      Trace.note_write ()
    done
  end

let reset t =
  Metric.reset_counter t.r;
  Metric.reset_counter t.ev_w;
  Metric.reset_counter t.sy_w;
  Metric.reset_counter t.sk

type snapshot = { reads : int; writes : int }

let snapshot t = { reads = reads t; writes = writes t }
let map2 f a b = { reads = f a.reads b.reads; writes = f a.writes b.writes }
let diff ~before ~after = map2 (fun b a -> a - b) before after
let add = map2 ( + )
let zero = { reads = 0; writes = 0 }
