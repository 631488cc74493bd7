type frame = {
  mutable page_id : int;
  mutable data : bytes;
  mutable shared : bool;
      (* [data] is the disk's stored image, shared with every other pool
         over the disk: {!modify} copies it before the first write *)
  mutable dirty : bool;
  mutable last_use : int;
}

type t = {
  disk : Disk.t;
  stats : Io_stats.t;
  mutable frames : frame array;
  mutable clock : int;
  resident : (int, frame) Hashtbl.t;
      (* page id -> frame, for every frame with page_id >= 0.  Keeps
         residency checks O(1) instead of O(frames); every page_id
         transition below updates it in the same step. *)
  mutable journal : (Journal.t * string) option;
      (* the write-ahead journal and this pool's file tag.  Attached only
         to a persistent relation's main pool; private partition pools
         and mem-backed pools leave it unset. *)
}

let make_frame () =
  {
    page_id = -1;
    data = Bytes.empty;
    shared = false;
    dirty = false;
    last_use = 0;
  }

let create ?(frames = 1) disk stats =
  if frames < 1 then invalid_arg "Buffer_pool.create: frames must be >= 1";
  {
    disk;
    stats;
    frames = Array.init frames (fun _ -> make_frame ());
    clock = 0;
    resident = Hashtbl.create (max 16 (2 * frames));
    journal = None;
  }

let stats t = t.stats
let disk t = t.disk
let npages t = Disk.npages t.disk

(* A sealed, checksummed copy of the page's current logical content:
   the resident frame if there is one (it may be dirtier than the disk),
   the stored page otherwise.  This is what the journal captures as pre-
   and post-images. *)
let sealed_image t id =
  match Hashtbl.find_opt t.resident id with
  | Some f ->
      let img = Bytes.copy f.data in
      Page.seal ~epoch:(Disk.epoch t.disk) img;
      img
  | None -> Disk.read_page t.disk id

let attach_journal t j ~file =
  t.journal <- Some (j, file);
  Journal.register_file j ~file ~image:(sealed_image t)
    ~npages:(fun () -> Disk.npages t.disk)

let journal t = t.journal

let m_hits = Tdb_obs.Metric.counter "tdb_pool_hits_total"
let m_misses = Tdb_obs.Metric.counter "tdb_pool_misses_total"
let m_evictions = Tdb_obs.Metric.counter "tdb_pool_evictions_total"

let touch t f =
  t.clock <- t.clock + 1;
  f.last_use <- t.clock

let flush_frame ~on_evict t f =
  if f.page_id >= 0 && f.dirty then begin
    (* The write-ahead rule: the journal records covering this page (its
       pre-image, at least) must be durable before the page itself can
       reach the file — evictions out of a 1-frame pool hit this path
       mid-statement all the time. *)
    (match t.journal with
    | Some (j, _) -> Journal.ensure_durable j
    | None -> ());
    Disk.write_page t.disk f.page_id f.data;
    if on_evict then Io_stats.count_eviction_write t.stats
    else Io_stats.count_sync_write t.stats;
    f.dirty <- false
  end

let find_resident t id = Hashtbl.find_opt t.resident id

let unbind t f =
  if f.page_id >= 0 then Hashtbl.remove t.resident f.page_id

let victim t =
  (* Free frame if any, else least recently used. *)
  let best = ref t.frames.(0) in
  Array.iter
    (fun f ->
      if f.page_id < 0 && !best.page_id >= 0 then best := f
      else if f.page_id >= 0 && !best.page_id >= 0 && f.last_use < !best.last_use
      then best := f)
    t.frames;
  !best

let load t id =
  match find_resident t id with
  | Some f ->
      Tdb_obs.Metric.incr m_hits;
      touch t f;
      f
  | None ->
      Tdb_obs.Metric.incr m_misses;
      let f = victim t in
      if f.page_id >= 0 then Tdb_obs.Metric.incr m_evictions;
      flush_frame ~on_evict:true t f;
      (* Empty the frame before the read: if the disk raises (checksum
         failure, I/O error), the frame must not claim to hold page [id]
         with the evicted page's bytes still in it. *)
      unbind t f;
      f.page_id <- -1;
      f.data <- Bytes.empty;
      f.dirty <- false;
      let data = Disk.read_image t.disk id in
      Io_stats.count_read t.stats;
      f.page_id <- id;
      f.data <- data;
      (* a mem disk hands out its stored image, a file disk a private
         buffer *)
      f.shared <- not (Disk.is_file_backed t.disk);
      Hashtbl.replace t.resident id f;
      touch t f;
      f

let allocate t =
  (match t.journal with
  | Some (j, file) when Journal.in_statement j -> Journal.note_extend j ~file
  | _ -> ());
  let id = Disk.allocate t.disk in
  (match t.journal with
  | Some (j, file) when Journal.in_statement j ->
      Journal.note_fresh_page j ~file ~page:id
  | _ -> ());
  let f = victim t in
  if f.page_id >= 0 then Tdb_obs.Metric.incr m_evictions;
  flush_frame ~on_evict:true t f;
  unbind t f;
  f.page_id <- id;
  f.data <- Page.create ();
  f.shared <- false;
  f.dirty <- true;
  Hashtbl.replace t.resident id f;
  touch t f;
  id

let read t id =
  let f = load t id in
  f.data

let modify t id fn =
  let f = load t id in
  (match t.journal with
  | Some (j, file) when Journal.in_statement j ->
      Journal.note_page_write j ~file ~page:id ~pre:(fun () ->
          let img = Bytes.copy f.data in
          Page.seal ~epoch:(Disk.epoch t.disk) img;
          img)
  | _ -> ());
  (* Copy on modify: the first write to a frame holding a stored image
     takes a private copy, so neither the store nor any other pool's
     frame sees the change before it is written back. *)
  if f.shared then begin
    f.data <- Bytes.copy f.data;
    f.shared <- false
  end;
  f.dirty <- true;
  fn f.data

let flush t = Array.iter (flush_frame ~on_evict:false t) t.frames

let sync t =
  flush t;
  Disk.fsync t.disk

let invalidate t =
  flush t;
  Hashtbl.reset t.resident;
  Array.iter
    (fun f ->
      f.page_id <- -1;
      f.data <- Bytes.empty;
      f.shared <- false;
      f.dirty <- false)
    t.frames

let resize t ~frames =
  if frames < 1 then invalid_arg "Buffer_pool.resize: frames must be >= 1";
  flush t;
  Hashtbl.reset t.resident;
  t.frames <- Array.init frames (fun _ -> make_frame ());
  t.clock <- 0
