module Pfile = Tdb_storage.Pfile
module Tid = Tdb_storage.Tid
module Page = Tdb_storage.Page
module Buffer_pool = Tdb_storage.Buffer_pool
module Time_fence = Tdb_storage.Time_fence
module Cursor = Tdb_storage.Cursor
module Value = Tdb_relation.Value
module Chronon = Tdb_time.Chronon
module Period = Tdb_time.Period

(* A time-ordered run of pages: fresh pages are only ever allocated to the
   newest segment, so segment creation times — and hence [push_lo] — are
   non-decreasing and an [as of] query can binary-search to its covering
   boundary instead of scanning the whole store.  Placement tails survive
   segment turnover (clustering versions of one tuple into a minimum
   number of pages takes priority); a push landing on an older segment's
   tail page widens that segment's push range and fence. *)
type segment = {
  first_page : int;
  mutable last_page : int;
  mutable push_lo : Chronon.t;
  mutable push_hi : Chronon.t;
  fence : Time_fence.t;
}

type t = {
  pf : Pfile.t;
  tuple_size : int;
  clustered : bool;
  cluster_tail : (Value.t, int) Hashtbl.t;
      (** clustered policy: the page currently receiving this tuple's
          versions *)
  mutable fill_tail : int;
      (** simple policy: the page currently receiving appends (-1 before
          the first) *)
  stamp : (bytes -> Time_fence.stamp) option;
  segment_pages : int;
  mutable segments : segment list;  (** newest first *)
  page_seg : (int, segment) Hashtbl.t;  (** page -> owning segment *)
  page_records : (int, int) Hashtbl.t;
      (** page -> records stored on it.  The store is append-only and
          never deletes, so slots fill [0, 1, 2, ...] in push order and
          these counts are per-page high-water marks: a record at slot
          [s] of page [p] existed at some past instant iff [s] was below
          the count recorded for [p] at that instant.  That turns
          point-in-time visibility into a {!boundary} bounds check. *)
}

let ptr_size = 4

let create ?stamp ?(segment_pages = 16) pool ~tuple_size ~clustered =
  let pf = Pfile.create pool ~record_size:(tuple_size + ptr_size) in
  if Pfile.npages pf <> 0 then
    invalid_arg "History_store.create: disk is not empty";
  if segment_pages < 1 then
    invalid_arg "History_store.create: segment_pages must be >= 1";
  (match stamp with
  | Some stamp -> Pfile.enable_fences pf ~stamp
  | None -> ());
  {
    pf;
    tuple_size;
    clustered;
    cluster_tail = Hashtbl.create 64;
    fill_tail = -1;
    stamp;
    segment_pages;
    segments = [];
    page_seg = Hashtbl.create 64;
    page_records = Hashtbl.create 64;
  }

let clustered t = t.clustered
let npages t = Pfile.npages t.pf

let segment_ranges t =
  List.rev_map (fun s -> (s.first_page, s.last_page)) t.segments

let segment_count t = List.length t.segments

let encode t tuple prev =
  let record = Bytes.create (t.tuple_size + ptr_size) in
  Bytes.blit tuple 0 record 0 t.tuple_size;
  (match prev with
  | None -> Bytes.set_int32_be record t.tuple_size 0l
  | Some p -> Tid.encode p record t.tuple_size);
  (* Tid encoding of page 0 slot 0 is 0, which collides with "none"; shift
     by one so every real pointer is nonzero. *)
  (match prev with
  | Some _ ->
      let raw = Bytes.get_int32_be record t.tuple_size in
      Bytes.set_int32_be record t.tuple_size (Int32.add raw 1l)
  | None -> ());
  record

let decode t record =
  let tuple = Bytes.sub record 0 t.tuple_size in
  let raw = Bytes.get_int32_be record t.tuple_size in
  let prev =
    if raw = 0l then None
    else begin
      let buf = Bytes.create 4 in
      Bytes.set_int32_be buf 0 (Int32.sub raw 1l);
      Some (Tid.decode buf 0)
    end
  in
  (tuple, prev)

let write_at t page record =
  match
    Page.find_free_slot
      ~record_size:(Pfile.record_size t.pf)
      (Buffer_pool.read (Pfile.pool t.pf) page)
  with
  | Some slot ->
      let tid = { Tid.page; slot } in
      Pfile.write_record t.pf tid record;
      Some tid
  | None -> None

let segment_width s = s.last_page - s.first_page + 1

let allocate_segment_page t ~now =
  let page = Pfile.allocate_page t.pf in
  let seg =
    match t.segments with
    | s :: _ when segment_width s < t.segment_pages ->
        s.last_page <- page;
        s
    | _ ->
        let s =
          {
            first_page = page;
            last_page = page;
            push_lo = now;
            push_hi = now;
            fence = Time_fence.empty ();
          }
        in
        t.segments <- s :: t.segments;
        s
  in
  Hashtbl.replace t.page_seg page seg;
  page

let note_push t ~now ~page record =
  let s = Hashtbl.find t.page_seg page in
  if Chronon.compare now s.push_lo < 0 then s.push_lo <- now;
  if Chronon.compare now s.push_hi > 0 then s.push_hi <- now;
  match t.stamp with
  | Some stamp -> Time_fence.note s.fence (stamp record)
  | None -> ()

let push t ~now ~cluster ~tuple ~prev =
  let record = encode t tuple prev in
  let tid =
    if t.clustered then begin
      let try_tail =
        match Hashtbl.find_opt t.cluster_tail cluster with
        | Some page -> write_at t page record
        | None -> None
      in
      match try_tail with
      | Some tid -> tid
      | None ->
          let page = allocate_segment_page t ~now in
          Hashtbl.replace t.cluster_tail cluster page;
          let tid = Option.get (write_at t page record) in
          tid
    end
    else begin
      let try_tail =
        if t.fill_tail >= 0 then write_at t t.fill_tail record else None
      in
      match try_tail with
      | Some tid -> tid
      | None ->
          let page = allocate_segment_page t ~now in
          t.fill_tail <- page;
          Option.get (write_at t page record)
    end
  in
  note_push t ~now ~page:tid.Tid.page record;
  Hashtbl.replace t.page_records tid.Tid.page
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.page_records tid.Tid.page));
  tid

(* --- epoch-fenced visibility --- *)

type boundary = int array

let boundary t =
  Array.init (Pfile.npages t.pf) (fun p ->
      Option.value ~default:0 (Hashtbl.find_opt t.page_records p))

let within b tid =
  tid.Tid.page < Array.length b && tid.Tid.slot < b.(tid.Tid.page)

let read t tid = decode t (Pfile.read_record t.pf tid)

let walk t ~head f =
  let rec go = function
    | None -> ()
    | Some tid ->
        let tuple, prev = read t tid in
        f tid tuple;
        go prev
  in
  go head

let scan_cursor ?window t =
  Cursor.of_pages ?window t.pf ~pages:(Seq.init (Pfile.npages t.pf) Fun.id)

(* Segment-aligned partitions of the full scan: each partition owns a
   contiguous run of whole time segments (oldest first, matching scan
   order), so no page is shared across partitions and the concatenation
   of partition outputs in list order is the sequential scan exactly.
   Each partition reads through a private 1-frame pool with private
   stats, like [Relation_file.partition_scan].

   Segments are the store's time shards: under a bounded window a
   segment whose fence cannot overlap the window is
   dropped before any worker sees it.  The drop charges exactly what
   the sequential per-page scan would have charged for those pages —
   one fence check and one skip each (the segment fence is the union of
   its page fences, so a refuted segment's pages are all individually
   refutable) — and surviving segments are charged nothing here: their
   workers re-check page by page, as the sequential scan does.  The
   prune counters therefore stay bit-identical to sequential. *)
let prune_window t window =
  match window with
  | Some w
    when Option.is_some t.stamp && not (Time_fence.window_is_unbounded w) ->
      Some w
  | _ -> None

let live_segments ~charge t window =
  let segs = List.rev t.segments in
  match prune_window t window with
  | None -> segs
  | Some w ->
      List.filter
        (fun s ->
          Time_fence.may_overlap s.fence w
          ||
          (if charge then begin
             let width = segment_width s in
             for _ = 1 to width do
               Time_fence.note_check ()
             done;
             Time_fence.note_skipped width
           end;
           false))
        segs

let scan_partitions ?window t ~parts =
  max 1 (min parts (List.length (live_segments ~charge:false t window)))

let partition_scan ?window t ~parts =
  Buffer_pool.flush (Pfile.pool t.pf);
  let segs = Array.of_list (live_segments ~charge:true t window) in
  let n = Array.length segs in
  let nparts = max 1 (min parts n) in
  if n = 0 then [ (Cursor.empty, Tdb_storage.Io_stats.create ()) ]
  else
    List.init nparts (fun i ->
        let lo = i * n / nparts and hi = ((i + 1) * n / nparts) - 1 in
        let stats = Tdb_storage.Io_stats.create () in
        let pool =
          Buffer_pool.create ~frames:1
            (Buffer_pool.disk (Pfile.pool t.pf))
            stats
        in
        let pf' = Pfile.with_pool t.pf pool in
        let pages =
          Seq.concat_map
            (fun s -> Seq.init (segment_width s) (fun k -> s.first_page + k))
            (Seq.init (hi - lo + 1) (fun k -> segs.(lo + k)))
        in
        (Cursor.of_pages ?window pf' ~pages, stats))

let iter t f =
  Cursor.iter (scan_cursor t) (fun tid record -> f tid (fst (decode t record)))

(* [as of at]: visit (at least) every version whose transaction period
   overlaps [at], in store order.

   The segments' push-time ranges are non-decreasing, so a binary search
   finds the boundary: segments pushed entirely at or before [at] (the
   prefix) hold the terminated versions that may satisfy the rollback and
   must be walked (their pages still get individual fence checks —
   superseded-only pages have max tstop <= at and drop out); segments
   pushed after [at] (the suffix) can only qualify through a version that
   {e started} at or before [at], which the segment fence decides without
   touching any page.  Even if the caller's clock ever ran backwards the
   result stays sound: prefix segments are read, and fence checks do not
   depend on push order. *)
let as_of_cursor t ~at =
  let segs = Array.of_list (List.rev t.segments) in
  let n = Array.length segs in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Chronon.compare segs.(mid).push_lo at <= 0 then lo := mid + 1
    else hi := mid
  done;
  let boundary = !lo in
  let window =
    { Time_fence.transaction = Some (Period.at at); valid = None }
  in
  let prune = Option.is_some t.stamp in
  (* One chunk per surviving page, segment by segment: the segment-level
     fence decision and the per-page checks fire in exactly the order and
     number of the eager walk, just spread over the cursor's pulls. *)
  let seg_i = ref 0 in
  let page = ref 0 in
  let in_segment = ref false in
  let rec chunk () =
    if !in_segment then begin
      let s = segs.(!seg_i) in
      if !page > s.last_page then begin
        in_segment := false;
        incr seg_i;
        chunk ()
      end
      else begin
        let p = !page in
        incr page;
        Some (Pfile.page_step ~window t.pf ~page:p)
      end
    end
    else if !seg_i >= n then None
    else begin
      let s = segs.(!seg_i) in
      let segment_skippable =
        !seg_i >= boundary && prune
        &&
        (Time_fence.note_check ();
         not (Time_fence.may_overlap s.fence window))
      in
      if segment_skippable then begin
        Time_fence.note_skipped (segment_width s);
        incr seg_i;
        chunk ()
      end
      else begin
        in_segment := true;
        page := s.first_page;
        chunk ()
      end
    end
  in
  Cursor.of_chunks chunk
