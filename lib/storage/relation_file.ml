module Schema = Tdb_relation.Schema
module Tuple = Tdb_relation.Tuple
module Value = Tdb_relation.Value
module Attr_type = Tdb_relation.Attr_type
module Chronon = Tdb_time.Chronon

type organization =
  | Heap
  | Hash of { key_attr : int; fillfactor : int }
  | Isam of { key_attr : int; fillfactor : int }

let organization_to_string = function
  | Heap -> "heap"
  | Hash { key_attr; fillfactor } ->
      Printf.sprintf "hash(attr %d, fillfactor %d)" key_attr fillfactor
  | Isam { key_attr; fillfactor } ->
      Printf.sprintf "isam(attr %d, fillfactor %d)" key_attr fillfactor

type impl =
  | Heap_impl of Heap_file.t
  | Hash_impl of Hash_file.t
  | Isam_impl of Isam_file.t

type t = {
  name : string;
  schema : Schema.t;
  disk : Disk.t;
  pool : Buffer_pool.t;
  stats : Io_stats.t;
  record_size : int;
  mutable org : organization;
  mutable impl : impl;
  stamp : (bytes -> Time_fence.stamp) option;
      (* derived from the schema's implicit time attributes; [None] for a
         static relation, which then keeps no fences *)
  sidecar : string option;
      (* where the fence summary persists for file-backed relations *)
  fault : Fault.t option;
      (* the database's fault plan, threaded into sidecar writes so the
         crash harness covers their windows too *)
  mutable journal : Journal.t option;
      (* the database's write-ahead journal, when statements are
         journalled; the pool carries the per-page hooks *)
}

let attr_offset schema i =
  let off = ref 0 in
  for j = 0 to i - 1 do
    off := !off + Attr_type.size (Schema.attr schema j).Schema.ty
  done;
  !off

let key_extractor schema key_attr =
  let n = Schema.arity schema in
  if key_attr < 0 || key_attr >= n then
    invalid_arg
      (Printf.sprintf "Relation_file: key attribute %d out of range 0..%d"
         key_attr (n - 1));
  let ty = (Schema.attr schema key_attr).Schema.ty in
  let off = attr_offset schema key_attr in
  fun record -> Value.decode ty record off

(* Decode one implicit time attribute straight out of the record bytes,
   without materialising the whole tuple. *)
let time_getter schema i =
  let off = attr_offset schema i in
  fun record ->
    match Value.decode Attr_type.Time record off with
    | Value.Time t -> t
    | _ -> assert false

let stamp_extractor schema =
  let transaction =
    match
      (Schema.transaction_start_index schema,
       Schema.transaction_stop_index schema)
    with
    | Some s, Some e ->
        let gs = time_getter schema s and ge = time_getter schema e in
        Some (fun record -> Some (gs record, ge record))
    | _ -> None
  in
  let valid =
    match (Schema.valid_from_index schema, Schema.valid_at_index schema) with
    | Some f, _ ->
        let gf = time_getter schema f in
        let gt =
          match Schema.valid_to_index schema with
          | Some i -> time_getter schema i
          | None -> fun _ -> Chronon.forever
        in
        Some (fun record -> Some (gf record, gt record))
    | None, Some a ->
        let ga = time_getter schema a in
        (* an event: Time_fence.stamp normalises (v, v) to [v, succ v) *)
        Some (fun record -> let v = ga record in Some (v, v))
    | None, None -> None
  in
  match (transaction, valid) with
  | None, None -> None (* static relation: nothing to fence on *)
  | _ ->
      let tr = Option.value transaction ~default:(fun _ -> None) in
      let va = Option.value valid ~default:(fun _ -> None) in
      Some
        (fun record ->
          Time_fence.stamp ~transaction:(tr record) ~valid:(va record))

let sidecar_path pages_path = pages_path ^ ".fences"

let make ~frames ~backing ~fault ~recover ~name ~schema =
  let disk =
    match backing with
    | `Mem -> Disk.create_mem ?fault ()
    | `File p -> Disk.open_file ?fault ~recover p
  in
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~frames disk stats in
  let record_size = Schema.tuple_size schema in
  {
    name;
    schema;
    disk;
    pool;
    stats;
    record_size;
    org = Heap;
    impl = Heap_impl (Heap_file.attach pool ~record_size);
    stamp = stamp_extractor schema;
    sidecar =
      (match backing with `Mem -> None | `File p -> Some (sidecar_path p));
    fault;
    journal = None;
  }

let set_journal t j =
  t.journal <- Some j;
  Buffer_pool.attach_journal t.pool j ~file:t.name

let data_pf t =
  match t.impl with
  | Heap_impl h -> Heap_file.pfile h
  | Hash_impl h -> Hash_file.pfile h
  | Isam_impl i -> Isam_file.pfile i

(* A snapshot reader's private view of the relation: same disk, same
   pages, but a private 1-frame buffer pool and private I/O counters, so
   concurrent readers never contend on (or dirty) the relation's own pool
   and never skew its statistics.  The clone is built by rebinding the
   pools of the {e current} impl values — never via [attach], which
   performs page I/O to rebuild in-memory metadata.  [journal = None]:
   a view never writes, and must not install journal hooks.  The caller
   is responsible for flushing the relation's own pool first (see
   [Database.flush_pools]) so the shared disk holds every published
   page. *)
let reader_view t =
  let stats = Io_stats.create () in
  let pool = Buffer_pool.create ~frames:1 t.disk stats in
  let impl =
    match t.impl with
    | Heap_impl h -> Heap_impl (Heap_file.with_pool h pool)
    | Hash_impl h -> Hash_impl (Hash_file.with_pool h pool)
    | Isam_impl i -> Isam_impl (Isam_file.with_pool i pool)
  in
  { t with pool; stats; impl; journal = None }

(* The chain heads of the data area: every record lives on a chain rooted
   at one of these (heap pages have no chains, so each page is its own
   head).  Directory pages of an ISAM file are excluded — they hold keys,
   not records, and are never fence-checked. *)
let data_heads t =
  match t.impl with
  | Heap_impl h -> Heap_file.npages h
  | Hash_impl h -> Hash_file.buckets h
  | Isam_impl i -> Isam_file.data_pages i

let rebuild_fences t =
  let pf = data_pf t in
  for head = 0 to data_heads t - 1 do
    Pfile.rebuild_chain_fences pf ~head
  done

(* --- persisted fence summary (the "<name>.pages.fences" sidecar) ---

   The summary is only trusted when it provably describes the page file as
   stored: the page count must match and no page may carry an epoch newer
   than the one recorded at summary-write time (pages written after the
   summary was taken get a newer stamp, and [Disk.epoch] at open is one
   past the newest stamp found).  A recovery pass that repaired anything
   also invalidates it.  Anything suspicious falls back to a rebuild scan,
   which is always sound. *)

let write_sidecar t ~epoch =
  match (t.sidecar, t.stamp) with
  | Some path, Some _ when Pfile.fences_enabled (data_pf t) ->
      let pf = data_pf t in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "tdbfences 1\n";
      Buffer.add_string buf (Printf.sprintf "epoch %d\n" epoch);
      Buffer.add_string buf
        (Printf.sprintf "npages %d\n" (Disk.npages t.disk));
      List.iter
        (fun (page, fence) ->
          Buffer.add_string buf
            (Printf.sprintf "page %d %s\n" page
               (String.concat " " (Time_fence.to_fields fence))))
        (List.sort compare (Pfile.fence_entries pf));
      List.iter
        (fun (page, next) ->
          Buffer.add_string buf (Printf.sprintf "link %d %d\n" page next))
        (List.sort compare (Pfile.link_entries pf));
      Atomic_file.write ?fault:t.fault ~path (Buffer.contents buf)
  | _ -> ()

let load_sidecar t path =
  let pf = data_pf t in
  (* Only trust the summary when a recovery pass ran cleanly: the pass is
     what establishes [Disk.epoch] (one past the newest page stamp), which
     the staleness check below relies on. *)
  let clean_pass =
    match Disk.recovery_report t.disk with
    | Some r -> not (Disk.recovery_repaired r)
    | None -> false
  in
  if (not clean_pass) || not (Sys.file_exists path) then false
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | magic :: epoch_line :: npages_line :: rest
      when magic = "tdbfences 1" -> (
        let field prefix line =
          match String.split_on_char ' ' line with
          | [ p; v ] when p = prefix -> int_of_string_opt v
          | _ -> None
        in
        match (field "epoch" epoch_line, field "npages" npages_line) with
        | Some epoch, Some npages
          when npages = Disk.npages t.disk && Disk.epoch t.disk <= epoch ->
            let ok = ref true in
            List.iter
              (fun line ->
                match String.split_on_char ' ' line with
                | "page" :: page :: fields -> (
                    match
                      (int_of_string_opt page, Time_fence.of_fields fields)
                    with
                    | Some page, Some fence -> Pfile.set_fence pf page fence
                    | _ -> ok := false)
                | [ "link"; page; next ] -> (
                    match (int_of_string_opt page, int_of_string_opt next) with
                    | Some page, Some next ->
                        Pfile.set_cached_link pf page (Some next)
                    | _ -> ok := false)
                | _ -> ok := false)
              rest;
            !ok
        | _ -> false)
    | _ -> false
  end

(* Enable fencing on the current impl's data pfile.  For a non-empty file
   the fences must describe the stored records before any window-bounded
   walk runs: load the persisted summary when it is provably current,
   otherwise rebuild by scanning (the recovery path). *)
let init_fences t =
  match t.stamp with
  | None -> ()
  | Some stamp ->
      let pf = data_pf t in
      Pfile.enable_fences pf ~stamp;
      if Disk.npages t.disk > 0 then begin
        let loaded =
          match t.sidecar with
          | Some path -> (
              match load_sidecar t path with
              | true -> true
              | false | (exception _) ->
                  (* a half-parsed summary may have planted entries *)
                  Pfile.enable_fences pf ~stamp;
                  false)
          | None -> false
        in
        if not loaded then rebuild_fences t
      end

let create ?(frames = 1) ?(backing = `Mem) ?fault ~name ~schema () =
  let t = make ~frames ~backing ~fault ~recover:false ~name ~schema in
  init_fences t;
  t

let name t = t.name
let schema t = t.schema
let organization t = t.org
let stats t = t.stats
let pool t = t.pool
let npages t = Buffer_pool.npages t.pool
let record_size t = t.record_size

let key_attr t =
  match t.org with
  | Heap -> None
  | Hash { key_attr; _ } | Isam { key_attr; _ } -> Some key_attr

let encode t tuple = Tuple.encode t.schema tuple
let decode t record = Tuple.decode t.schema record 0

let insert t tuple =
  let record = encode t tuple in
  match t.impl with
  | Heap_impl h -> Heap_file.insert h record
  | Hash_impl h -> Hash_file.insert h record
  | Isam_impl i -> Isam_file.insert i record

let read t tid =
  let record =
    match t.impl with
    | Heap_impl h -> Heap_file.read h tid
    | Hash_impl h -> Hash_file.read h tid
    | Isam_impl i -> Isam_file.read i tid
  in
  decode t record

let update t tid tuple =
  let record = encode t tuple in
  match t.impl with
  | Heap_impl h -> Heap_file.update h tid record
  | Hash_impl h -> Hash_file.update h tid record
  | Isam_impl i -> Isam_file.update i tid record

let delete t tid =
  match t.impl with
  | Heap_impl h -> Heap_file.delete h tid
  | Hash_impl h -> Hash_file.delete h tid
  | Isam_impl i -> Isam_file.delete i tid

(* --- the unified access-path layer --- *)

type access_path =
  | Full_scan
  | Key_lookup of Value.t
  | Key_range of { lo : Value.t option; hi : Value.t option }

(* Every organization answers every access path with a batch cursor over
   raw records; keyless organizations degrade gracefully (a heap answers
   a probe with a full scan and the caller filters, as always).  This is
   the single dispatch point the executor's plan nodes resolve through.
   [keep] joins the access method's own key/range filter in the page
   step, so records are filtered before they are copied out. *)
let cursor ?window ?keep t access =
  match (t.impl, access) with
  | Heap_impl h, Full_scan -> Heap_file.scan_cursor ?window ?keep h
  | Heap_impl h, Key_lookup key -> Heap_file.lookup_cursor ?window ?keep h key
  | Heap_impl h, Key_range { lo; hi } ->
      Heap_file.range_cursor ?window ?keep h ~lo ~hi
  | Hash_impl h, Full_scan -> Hash_file.scan_cursor ?window ?keep h
  | Hash_impl h, Key_lookup key -> Hash_file.lookup_cursor ?window ?keep h key
  | Hash_impl h, Key_range { lo; hi } ->
      Hash_file.range_cursor ?window ?keep h ~lo ~hi
  | Isam_impl i, Full_scan -> Isam_file.scan_cursor ?window ?keep i
  | Isam_impl i, Key_lookup key -> Isam_file.lookup_cursor ?window ?keep i key
  | Isam_impl i, Key_range { lo; hi } ->
      Isam_file.range_cursor ?window ?keep i ~lo ~hi

(* --- partition-parallel execution ---

   Split an access path into [parts] page-disjoint partitions for
   parallel execution.  Partitioning is by contiguous ranges of the
   chain heads the access walks, in walk order: heap pages have no
   chains (each page is its own head), and hash buckets / ISAM primary
   pages own their overflow chains outright (overflow pages are
   allocated per chain), so no page can appear in two partitions.  A
   keyed hash probe walks a single chain, so it partitions by contiguous
   page runs of that chain instead.  Each partition reads through a
   private 1-frame buffer pool with private stats — concatenating the
   partitions in order yields exactly the sequential cursor's rows, and
   summing their reads yields exactly the sequential read count (a fresh
   1-frame pool misses on precisely the pages a fresh sequential access
   misses).

   Time shards: with fencing on and a bounded window, a head whose every
   chain page is fence-refuted is dropped before any worker sees it.
   The drop is charged exactly what the sequential per-page walk would
   have charged — one fence check and one skipped page per page — and
   heads that survive are charged nothing here (their workers re-check
   each page, as the sequential walk does), so the prune counters stay
   bit-identical to sequential execution. *)

type par_plan = {
  pp_parts : int;
  pp_pages : int;
  pp_pruned_pages : int;
}

(* The window under which shard pruning may act at all — mirrors the
   preconditions of [Pfile.skippable] so build-time refutation agrees
   exactly with what each worker's per-page walk would decide. *)
let prune_window t window =
  match (window, t.stamp) with
  | Some w, Some _
    when Pfile.fences_enabled (data_pf t)
         && not (Time_fence.window_is_unbounded w) ->
      Some w
  | _ -> None

(* Missing fence entry = nothing written since fencing was enabled =
   empty page: refuted under any bounded window, as in [Pfile]. *)
let page_refuted pf w page =
  match Pfile.fence_of pf page with
  | Some f -> not (Time_fence.may_overlap f w)
  | None -> true

(* The partitionable shape of an access path on the current
   organization: which chain heads the access walks (plus the record
   filter the sequential cursor applies), or — for a keyed hash probe —
   which single chain's pages. *)
type shape =
  | Heads of { heads : int list; filter : (bytes -> bool) option }
  | Chain of { pages : int list; filter : bytes -> bool }

let all_heads t = List.init (data_heads t) Fun.id

(* An ISAM probe's primary pages form one contiguous run; [charged]
   selects the real (counted) directory descent for execution vs the
   in-memory replay for charge-free previews. *)
let isam_shape ~charged i ~lo ~hi =
  let first, stop =
    if charged then Isam_file.range_run i ~lo ~hi
    else Isam_file.range_run_mem i ~lo ~hi
  in
  let heads = List.init (stop - first) (fun k -> first + k) in
  Some (Heads { heads; filter = Some (Isam_file.range_filter i ~lo ~hi) })

let shape ~charged t access =
  match (t.impl, access) with
  | _, Full_scan -> Some (Heads { heads = all_heads t; filter = None })
  | Heap_impl _, (Key_lookup _ | Key_range _) ->
      (* a heap answers probes with a full scan; callers filter *)
      Some (Heads { heads = all_heads t; filter = None })
  | Hash_impl h, Key_lookup key -> (
      match
        Pfile.cached_chain_pages (Hash_file.pfile h)
          ~head:(Hash_file.bucket_of h key)
      with
      | Some pages ->
          Some (Chain { pages; filter = Hash_file.lookup_filter h key })
      | None -> None (* fencing off: the chain's length is unknown for free *))
  | Hash_impl _, Key_range { lo = None; hi = None } ->
      Some (Heads { heads = all_heads t; filter = None })
  | Hash_impl h, Key_range { lo; hi } ->
      (* no order in a hash file: a filtered full scan *)
      Some
        (Heads
           {
             heads = all_heads t;
             filter = Some (Hash_file.range_filter h ~lo ~hi);
           })
  | Isam_impl i, Key_lookup key ->
      isam_shape ~charged i ~lo:(Some key) ~hi:(Some key)
  | Isam_impl i, Key_range { lo; hi } -> isam_shape ~charged i ~lo ~hi

(* A head's full page list, from the mirrored overflow links alone (no
   I/O); [None] when fencing is off and the org is chained. *)
let head_pages t pf head =
  match t.impl with
  | Heap_impl _ -> Some [ head ]
  | Hash_impl _ | Isam_impl _ -> Pfile.cached_chain_pages pf ~head

let split_runs lst nparts =
  let arr = Array.of_list lst in
  let n = Array.length arr in
  List.init nparts (fun i ->
      let lo = i * n / nparts and hi = (i + 1) * n / nparts in
      Array.to_list (Array.sub arr lo (hi - lo)))

let partition_preview ?window t ~parts access =
  match shape ~charged:false t access with
  | None -> None
  | Some sh ->
      let pf = data_pf t in
      let w = prune_window t window in
      let plan ~live_units ~live_pages ~pruned =
        Some
          {
            pp_parts = max 1 (min parts (max 1 live_units));
            pp_pages = live_pages;
            pp_pruned_pages = pruned;
          }
      in
      (match (sh, w) with
      | Chain { pages; _ }, None ->
          let n = List.length pages in
          plan ~live_units:n ~live_pages:n ~pruned:0
      | Chain { pages; _ }, Some w ->
          let total = List.length pages in
          let alive =
            List.length
              (List.filter (fun p -> not (page_refuted pf w p)) pages)
          in
          plan ~live_units:alive ~live_pages:alive ~pruned:(total - alive)
      | Heads { heads; _ }, Some w ->
          (* a bounded prune window implies fencing is on, so every
             head's chain is enumerable for free *)
          let live_heads = ref 0 and live_pages = ref 0 and pruned = ref 0 in
          List.iter
            (fun head ->
              match head_pages t pf head with
              | Some pages ->
                  let alive =
                    List.length
                      (List.filter (fun p -> not (page_refuted pf w p)) pages)
                  in
                  if alive > 0 then incr live_heads;
                  live_pages := !live_pages + alive;
                  pruned := !pruned + List.length pages - alive
              | None ->
                  incr live_heads;
                  incr live_pages)
            heads;
          plan ~live_units:!live_heads ~live_pages:!live_pages ~pruned:!pruned
      | Heads { heads; _ }, None ->
          let nheads = List.length heads in
          let pages =
            match t.impl with
            | Heap_impl _ -> nheads
            | Hash_impl _ | Isam_impl _ ->
                if Pfile.fences_enabled pf then
                  List.fold_left
                    (fun acc head ->
                      match head_pages t pf head with
                      | Some pages -> acc + List.length pages
                      | None -> acc + 1)
                    0 heads
                else
                  (* fence-free estimate: the whole file (for a subset
                     run this overshoots; admission only needs an order
                     of magnitude) *)
                  Pfile.npages pf
          in
          plan ~live_units:nheads ~live_pages:pages ~pruned:0)

let partition_access ?window ?keep t ~parts access =
  match shape ~charged:true t access with
  | None -> None
  | Some sh ->
      (* Dirty frames in the relation's own pool are invisible to the
         private pools, which read the disk directly; push them down
         first.  On the read-only query path this is a no-op. *)
      Buffer_pool.flush t.pool;
      let pf = data_pf t in
      let w = prune_window t window in
      let mk_part cursor_of =
        let stats = Io_stats.create () in
        let pool = Buffer_pool.create ~frames:1 t.disk stats in
        let pf' = Pfile.with_pool pf pool in
        (cursor_of pf', stats)
      in
      (* A refuted shard is charged exactly what the sequential per-page
         walk would have charged: one fence check and one skip per page. *)
      let charge_refuted npages =
        for _ = 1 to npages do
          Time_fence.note_check ()
        done;
        Time_fence.note_skipped npages
      in
      let parts_of live mk =
        if live = [] then [ (Cursor.empty, Io_stats.create ()) ]
        else
          let nparts = max 1 (min parts (List.length live)) in
          List.map (fun slice -> mk_part (mk slice)) (split_runs live nparts)
      in
      (match sh with
      | Chain { pages; filter } ->
          let filter = Cursor.and_keep keep (Some filter) in
          let live =
            match w with
            | None -> pages
            | Some w ->
                List.filter
                  (fun p ->
                    if page_refuted pf w p then begin
                      charge_refuted 1;
                      false
                    end
                    else true)
                  pages
          in
          Some
            (parts_of live (fun slice pf' ->
                 Cursor.of_pages ?window ?filter pf'
                   ~pages:(List.to_seq slice)))
      | Heads { heads; filter } ->
          let filter = Cursor.and_keep keep filter in
          let live =
            match w with
            | None -> heads
            | Some w ->
                List.filter
                  (fun head ->
                    match head_pages t pf head with
                    | Some pages when List.for_all (page_refuted pf w) pages ->
                        charge_refuted (List.length pages);
                        false
                    | _ -> true)
                  heads
          in
          Some
            (parts_of live (fun slice pf' ->
                 let hs = List.to_seq slice in
                 match t.impl with
                 | Heap_impl _ -> Cursor.of_pages ?window ?filter pf' ~pages:hs
                 | Hash_impl _ | Isam_impl _ ->
                     Cursor.of_chains ?window ?filter pf' ~heads:hs)))

(* Test one record's transaction period against a fixed window straight
   from its bytes, mirroring [Tuple.transaction_period] composed with
   [Period.overlaps] exactly (including the degenerate stop < start event
   normalisation and the boundary-chronon rule), so an executor can
   refute a version against an as-of window before paying for a full
   decode — without allocating per record on the hot scan path.  [None]
   for schemas without transaction time — exactly when
   [Tuple.transaction_period] answers [None] and the as-of test passes
   every tuple. *)
let transaction_overlaps schema =
  match
    (Schema.transaction_start_index schema,
     Schema.transaction_stop_index schema)
  with
  | Some s, Some e ->
      let soff = attr_offset schema s and eoff = attr_offset schema e in
      Some
        (fun w ->
          let wf = Tdb_time.Period.from_ w and wt = Tdb_time.Period.to_ w in
          fun record ->
            let start =
              Chronon.of_seconds (Int32.to_int (Bytes.get_int32_be record soff))
            in
            let stop =
              Chronon.of_seconds (Int32.to_int (Bytes.get_int32_be record eoff))
            in
            (* A degenerate stop < start pair denotes an event at start. *)
            let pt = if Chronon.compare stop start < 0 then start else stop in
            let lo = Chronon.max start wf and hi = Chronon.min pt wt in
            match Chronon.compare lo hi with
            | c when c < 0 -> true
            | 0 ->
                (* The shared boundary chronon counts only if both
                   periods contain it (events do; half-open intervals
                   exclude their end). *)
                (if Chronon.equal start pt then Chronon.equal start lo
                 else
                   Chronon.compare start lo <= 0 && Chronon.compare lo pt < 0)
                &&
                if Chronon.equal wf wt then Chronon.equal wf lo
                else Chronon.compare wf lo <= 0 && Chronon.compare lo wt < 0
            | _ -> false)
  | _ -> None

let scan ?window t f =
  Cursor.iter (cursor ?window t Full_scan) (fun tid r -> f tid (decode t r))

let lookup ?window t key f =
  Cursor.iter (cursor ?window t (Key_lookup key)) (fun tid r ->
      f tid (decode t r))

let lookup_range ?window t ?lo ?hi f =
  Cursor.iter (cursor ?window t (Key_range { lo; hi })) (fun tid r ->
      f tid (decode t r))

let all_records t =
  let acc = ref [] in
  let g _tid record = acc := record :: !acc in
  (match t.impl with
  | Heap_impl h -> Heap_file.iter h g
  | Hash_impl h -> Hash_file.iter h g
  | Isam_impl i -> Isam_file.iter i g);
  List.rev !acc

let modify t org =
  let records = all_records t in
  (* A reorganization destroys the whole file and rebuilds it — the
     largest crash window there is.  Journal a pre-image of every live
     page (plus the base extent) and make them durable before the
     truncate; the rebuild's own writes are then journalled page by page
     through the pool, and commit captures the post-state. *)
  (match t.journal with
  | Some j when Journal.in_statement j ->
      Journal.note_truncate j ~file:t.name;
      Journal.ensure_durable j
  | _ -> ());
  Buffer_pool.invalidate t.pool;
  Disk.truncate t.disk;
  let record_size = t.record_size in
  let impl =
    match org with
    | Heap ->
        let h = Heap_file.attach t.pool ~record_size in
        List.iter (fun r -> ignore (Heap_file.insert h r)) records;
        Heap_impl h
    | Hash { key_attr; fillfactor } ->
        let key_of = key_extractor t.schema key_attr in
        Hash_impl
          (Hash_file.build t.pool ~record_size ~key_of ~fillfactor records)
    | Isam { key_attr; fillfactor } ->
        let key_of = key_extractor t.schema key_attr in
        let key_type = (Schema.attr t.schema key_attr).Schema.ty in
        Isam_impl
          (Isam_file.build t.pool ~record_size ~key_of ~key_type ~fillfactor
             records)
  in
  t.org <- org;
  t.impl <- impl;
  (* the rebuild created fresh pfiles; re-derive their fences *)
  init_fences t

let tuple_count t =
  let n = ref 0 in
  scan t (fun _ _ -> incr n);
  !n

type org_meta =
  | Heap_meta
  | Hash_meta of { key_attr : int; fillfactor : int; buckets : int }
  | Isam_meta of {
      key_attr : int;
      fillfactor : int;
      ndata : int;
      levels : (int * int) list;
    }

let org_meta t =
  match t.impl with
  | Heap_impl _ -> Heap_meta
  | Hash_impl h -> (
      match t.org with
      | Hash { key_attr; fillfactor } ->
          Hash_meta { key_attr; fillfactor; buckets = Hash_file.buckets h }
      | _ -> assert false)
  | Isam_impl i -> (
      match t.org with
      | Isam { key_attr; fillfactor } ->
          Isam_meta
            {
              key_attr;
              fillfactor;
              ndata = Isam_file.data_pages i;
              levels = Isam_file.levels i;
            }
      | _ -> assert false)

let attach ?(frames = 1) ?fault ?(recover = true) ~backing ~name ~schema meta =
  let t = make ~frames ~backing ~fault ~recover ~name ~schema in
  (match meta with
  | Heap_meta -> ()
  | Hash_meta { key_attr; fillfactor; buckets } ->
      let key_of = key_extractor schema key_attr in
      t.org <- Hash { key_attr; fillfactor };
      t.impl <-
        Hash_impl
          (Hash_file.attach t.pool ~record_size:t.record_size ~key_of
             ~fillfactor ~buckets)
  | Isam_meta { key_attr; fillfactor; ndata; levels } ->
      let key_of = key_extractor schema key_attr in
      let key_type = (Schema.attr schema key_attr).Schema.ty in
      t.org <- Isam { key_attr; fillfactor };
      t.impl <-
        Isam_impl
          (Isam_file.attach t.pool ~record_size:t.record_size ~key_of ~key_type
             ~fillfactor ~ndata ~levels));
  init_fences t;
  t

let set_first_fit t v =
  match t.impl with
  | Heap_impl h -> Pfile.set_first_fit (Heap_file.pfile h) v
  | Hash_impl h -> Pfile.set_first_fit (Hash_file.pfile h) v
  | Isam_impl i -> Pfile.set_first_fit (Isam_file.pfile i) v

let recovery t = Disk.recovery_report t.disk
let fences_enabled t = Pfile.fences_enabled (data_pf t)

let sync t =
  Buffer_pool.sync t.pool;
  (* checkpoint boundary: pages written from here on carry the next epoch *)
  Disk.bump_epoch t.disk;
  (* The summary records the post-bump epoch: any later page write stamps
     that epoch onto a page, which makes the stored summary provably stale
     at the next open (Disk.epoch will be past it) and forces a rebuild. *)
  write_sidecar t ~epoch:(Disk.epoch t.disk)

let close t =
  Buffer_pool.flush t.pool;
  Disk.fsync t.disk;
  (* Pages flushed here carry the current epoch, so at the next open
     [Disk.epoch] is one past it: record that as the summary's epoch. *)
  write_sidecar t ~epoch:(Disk.epoch t.disk + 1);
  Disk.close t.disk

let abandon t = Disk.close t.disk
