module Imap = Map.Make (Int)

(* The fence and link tables are immutable maps held in mutable fields:
   writers replace the whole map when a page gains its first fence entry
   or an overflow link changes, and mutate existing fence values in place
   (fences only widen, field by field).  This is what makes the tables
   readable from concurrent snapshot-reader domains with no lock:

   - a map read is one mutable-field load of an immutable structure, so a
     reader always sees a coherent (if slightly stale) table — never a
     Hashtbl mid-resize;
   - staleness is conservative: a missing entry describes a page created
     after the reader's snapshot, whose records all post-date it, so
     skipping is exactly right; a widened fence only admits more pages;
   - in-place widening races at worst show a reader a per-field mix of
     old and new bounds, and every mix is at least as wide as the bounds
     published before its snapshot (each field moves monotonically), so
     no page holding a pre-snapshot record is ever skipped. *)
type fencing = {
  stamp : bytes -> Time_fence.stamp;
  mutable fences : Time_fence.t Imap.t;
      (* page -> fence over every record ever written there.  A missing
         entry means no record was written since fencing was enabled, i.e.
         the page is empty (callers must rebuild after attaching to a
         non-empty file), so it is skippable under any window. *)
  mutable links : int Imap.t;
      (* page -> overflow successor, mirrored from the page trailers so a
         skip-scan can follow a chain past a pruned page without reading
         it.  A missing entry means no successor. *)
}

type t = {
  pool : Buffer_pool.t;
  record_size : int;
  capacity : int;
  mutable first_fit : bool;
      (* First-fit reuses slack anywhere along the chain (Ingres behaviour,
         the source of Figure 8(b)'s jagged staircase at 50% loading);
         tail-append only ever fills the newest page. *)
  hints : (int, int) Hashtbl.t;
      (* head page -> first chain page that may have a free slot.  Valid
         because chains only grow and slots are freed rarely; a stale hint
         only costs extra probes, never correctness (we re-scan from the
         hint onward). *)
  mutable fencing : fencing option;
}

let m_overflow_pages =
  Tdb_obs.Metric.counter "tdb_storage_overflow_pages_total"

let h_chain_length =
  Tdb_obs.Metric.histogram "tdb_storage_chain_length_pages"

let create pool ~record_size =
  {
    pool;
    record_size;
    capacity = Page.capacity ~record_size;
    first_fit = true;
    hints = Hashtbl.create 64;
    fencing = None;
  }

let with_pool t pool =
  (* A read-path clone for parallel scan partitions: same record layout,
     same fencing tables (read-only during scans), but page I/O goes
     through [pool] — a private, privately-counted buffer pool — so no
     frame is shared across domains.  Fresh hints so the clone never
     aliases the insert path's mutable state. *)
  { t with pool; hints = Hashtbl.create 8 }

(* --- time fences --- *)

let enable_fences t ~stamp =
  t.fencing <- Some { stamp; fences = Imap.empty; links = Imap.empty }

let fences_enabled t = Option.is_some t.fencing

let fence_of t page =
  match t.fencing with
  | None -> None
  | Some fc -> Imap.find_opt page fc.fences

let set_fence t page fence =
  match t.fencing with
  | None -> ()
  | Some fc -> fc.fences <- Imap.add page fence fc.fences

let cached_link t page =
  match t.fencing with
  | None -> None
  | Some fc -> Imap.find_opt page fc.links

let set_cached_link t page next =
  match t.fencing with
  | None -> ()
  | Some fc -> (
      match next with
      | Some n -> fc.links <- Imap.add page n fc.links
      | None -> fc.links <- Imap.remove page fc.links)

let stamp_record (fc : fencing) page record =
  let fence =
    match Imap.find_opt page fc.fences with
    | Some f -> f
    | None ->
        let f = Time_fence.empty () in
        fc.fences <- Imap.add page f fc.fences;
        f
  in
  Time_fence.note fence (fc.stamp record)

(* Whether a fence-bounded walk may skip [page] without reading it.
   Missing fence = no record written = empty page = always skippable. *)
let skippable t window page =
  match (t.fencing, window) with
  | Some fc, Some w when not (Time_fence.window_is_unbounded w) ->
      Time_fence.note_check ();
      let admits =
        match Imap.find_opt page fc.fences with
        | Some f -> Time_fence.may_overlap f w
        | None -> false
      in
      not admits
  | _ -> false

let set_first_fit t v = t.first_fit <- v
let first_fit t = t.first_fit

let pool t = t.pool
let record_size t = t.record_size
let capacity t = t.capacity
let npages t = Buffer_pool.npages t.pool
let allocate_page t = Buffer_pool.allocate t.pool

let read_record t (tid : Tid.t) =
  let page = Buffer_pool.read t.pool tid.page in
  Page.read_record ~record_size:t.record_size page tid.slot

let write_record t (tid : Tid.t) record =
  Buffer_pool.modify t.pool tid.page (fun page ->
      Page.write_record ~record_size:t.record_size page tid.slot record);
  (* Every record write widens the page fence; in-place updates keep the
     old rectangle too (fences never shrink), which is what makes them
     safe against any later read. *)
  match t.fencing with
  | Some fc -> stamp_record fc tid.page record
  | None -> ()

let clear_record t (tid : Tid.t) =
  Buffer_pool.modify t.pool tid.page (fun page ->
      Page.clear_slot ~record_size:t.record_size page tid.slot);
  (* A freed slot may sit before the first-fit hint of some chain; rather
     than track chain membership we just drop all hints. *)
  Hashtbl.reset t.hints

let next_overflow t page_id =
  Page.get_overflow (Buffer_pool.read t.pool page_id)

let set_next_overflow t page_id next =
  Buffer_pool.modify t.pool page_id (fun page -> Page.set_overflow page next);
  set_cached_link t page_id next

let chain_insert t ~head record =
  let start = match Hashtbl.find_opt t.hints head with
    | Some p -> p
    | None -> head
  in
  let rec go page_id =
    let try_here =
      if t.first_fit then true
      else
        (* tail-append: only the last page of the chain accepts records *)
        next_overflow t page_id = None
    in
    let free =
      if not try_here then None
      else
        let page = Buffer_pool.read t.pool page_id in
        Page.find_free_slot ~record_size:t.record_size page
    in
    match free with
    | Some slot ->
        let tid = { Tid.page = page_id; slot } in
        write_record t tid record;
        Hashtbl.replace t.hints head page_id;
        tid
    | None -> (
        match next_overflow t page_id with
        | Some next -> go next
        | None ->
            let fresh = allocate_page t in
            Tdb_obs.Metric.incr m_overflow_pages;
            set_next_overflow t page_id (Some fresh);
            let tid = { Tid.page = fresh; slot = 0 } in
            write_record t tid record;
            Hashtbl.replace t.hints head fresh;
            tid)
  in
  go start

(* Copy the used records of one page that pass [filter] out of its
   frame, in slot order.  Nothing returned may alias the frame: callers
   hold records across pool operations, and a file-backed frame is
   rewritten in place by the next [modify] of its page.  With a filter,
   each used slot is tested through one scratch record per page and only
   survivors are copied, so a probe allocates for its matches, not for
   every record it walks past.  The filter sees the slots in ascending
   order, so a restriction that raises does so for the first failing
   record. *)
let page_records ?filter t ~page =
  let record_size = t.record_size in
  let frame = Buffer_pool.read t.pool page in
  let records = ref [] in
  match filter with
  | None ->
      for slot = t.capacity - 1 downto 0 do
        if Page.slot_used ~record_size frame slot then
          records :=
            ({ Tid.page; slot }, Page.read_record ~record_size frame slot)
            :: !records
      done;
      !records
  | Some keep ->
      let scratch = Bytes.create record_size in
      for slot = 0 to t.capacity - 1 do
        if Page.slot_used ~record_size frame slot then begin
          Page.blit_record ~record_size frame slot scratch;
          if keep scratch then
            records := ({ Tid.page; slot }, Bytes.copy scratch) :: !records
        end
      done;
      List.rev !records

let note_skip t =
  Time_fence.note_skipped 1;
  Io_stats.count_skip (Buffer_pool.stats t.pool)

let page_step ?window ?filter t ~page =
  if skippable t window page then begin
    note_skip t;
    []
  end
  else page_records ?filter t ~page

let chain_step ?window ?filter t ~page =
  if skippable t window page then begin
    note_skip t;
    ([], cached_link t page)
  end
  else begin
    (* Trailer first, records second: the same frame serves both (the
       second access is a pool hit), exactly like the eager walk always
       did, so page-I/O accounting is bit-identical under batching. *)
    let next = next_overflow t page in
    (page_records ?filter t ~page, next)
  end

let observe_chain_length pages =
  if Tdb_obs.Metric.enabled () then
    Tdb_obs.Metric.observe h_chain_length (float_of_int pages)

let page_iter ?window t ~page f =
  List.iter (fun (tid, r) -> f tid r) (page_step ?window t ~page)

let chain_iter ?window t ~head f =
  (* The page count observed here doubles as the chain-length sample: the
     walk happens anyway, so the histogram costs no extra I/O.  Pruned
     pages still count as chain length — the chain's shape is unchanged;
     we just follow the mirrored link instead of reading the trailer. *)
  let rec go pages page_id =
    let records, next = chain_step ?window t ~page:page_id in
    List.iter (fun (tid, r) -> f tid r) records;
    match next with Some n -> go (pages + 1) n | None -> pages
  in
  observe_chain_length (go 1 head)

let rebuild_page_fence t ~page =
  match t.fencing with
  | None -> ()
  | Some fc ->
      set_cached_link t page (next_overflow t page);
      page_iter t ~page (fun _tid record -> stamp_record fc page record)

let rebuild_chain_fences t ~head =
  let rec go page_id =
    rebuild_page_fence t ~page:page_id;
    match cached_link t page_id with Some n -> go n | None -> ()
  in
  if fences_enabled t then go head

let fence_entries t =
  match t.fencing with
  | None -> []
  | Some fc -> Imap.fold (fun page f acc -> (page, f) :: acc) fc.fences []

let link_entries t =
  match t.fencing with
  | None -> []
  | Some fc -> Imap.fold (fun page n acc -> (page, n) :: acc) fc.links []

let chain_pages t ~head =
  let rec go acc page_id =
    match next_overflow t page_id with
    | Some n -> go (page_id :: acc) n
    | None -> List.rev (page_id :: acc)
  in
  go [] head

(* The chain's page list from the mirrored links alone — no page I/O.
   Only meaningful with fencing on: the link table is complete then
   (every [set_next_overflow] mirrors, and rebuild/sidecar-load seed it),
   so a missing entry really means "no successor". *)
let cached_chain_pages t ~head =
  if not (fences_enabled t) then None
  else
    let rec go acc page_id =
      match cached_link t page_id with
      | Some n -> go (page_id :: acc) n
      | None -> List.rev (page_id :: acc)
    in
    Some (go [] head)

let chain_length t ~head = List.length (chain_pages t ~head)
