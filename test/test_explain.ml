(* Golden [\explain] and explain-analyze text for every plan shape.

   Each shape runs at one worker and at four workers with the parallel
   admission floor at 0, with the worker count and the temporal-join
   switch pinned per case, so the text is the same whatever TDB_WORKERS /
   TDB_TJOIN the suite runs under.  For every case the golden holds the
   full [Engine.explain] report, then the explain-analyze span tree (one
   line per span: label, reads, writes, pruned pages, tuples, batches;
   wall times and domain ids stripped) and its [parallel:] line.  Pools
   are chilled before each analyze so the page counts do not depend on
   the order the cases run in. *)

module Workload = Tdb_benchkit.Workload
module Evolve = Tdb_benchkit.Evolve
module Engine = Tdb_core.Engine
module Database = Tdb_core.Database
module Executor = Tdb_query.Executor
module Relation_file = Tdb_storage.Relation_file
module Buffer_pool = Tdb_storage.Buffer_pool
module Trace = Tdb_obs.Trace

let evolved kind =
  let w = Workload.build ~kind ~loading:100 ~seed:31 () in
  for round = 1 to 2 do
    Evolve.uniform_round w ~round
  done;
  (* a third variable over the hashed relation, for three-way nests *)
  (match Database.set_range w.Workload.db ~var:"g" ~rel:w.Workload.h_name with
  | Ok () -> ()
  | Error e -> failwith e);
  w

let temporal = lazy (evolved Workload.Temporal)
let static = lazy (evolved Workload.Static)

let chill (w : Workload.t) =
  let db = w.Workload.db in
  List.iter
    (fun name ->
      match Database.find_relation db name with
      | Some rel -> Buffer_pool.invalidate (Relation_file.pool rel)
      | None -> ())
    (Database.relation_names db)

let render_tree root =
  let b = Buffer.create 256 in
  let rec go depth (n : Trace.node) =
    let attrs =
      List.filter (fun (k, _) -> k <> "domain") (List.rev n.Trace.attrs)
      |> List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v)
      |> String.concat ""
    in
    Printf.bprintf b "%s%s%s  [r%d w%d s%d t%d b%d]\n"
      (String.make (2 * depth) ' ')
      n.Trace.name attrs n.Trace.reads n.Trace.writes n.Trace.skips
      n.Trace.tuples n.Trace.batches;
    List.iter (go (depth + 1)) (Trace.children n)
  in
  go 0 root;
  Buffer.contents b

let report (w : Workload.t) ~workers ~tjoin src =
  let config =
    { Executor.default_config with workers; floor = 0; temporal_join = tjoin }
  in
  let explain =
    match Engine.explain ~config w.Workload.db src with
    | Ok text -> text
    | Error e -> Alcotest.failf "explain failed (%s): %s" e src
  in
  chill w;
  match Engine.analyze ~config w.Workload.db src with
  | Error e -> Alcotest.failf "analyze failed (%s): %s" e src
  | Ok a ->
      let tree =
        match Engine.outcome_trace a.Engine.a_outcome with
        | Some t -> render_tree t
        | None -> "(no tree)\n"
      in
      Printf.sprintf "%s\n--\n%s%s\n" explain tree
        (Option.value a.Engine.a_parallel ~default:"(no parallel line)")

(* (case, database, temporal-join switch, statement) *)
let shapes =
  [
    ("const emit", static, true, "retrieve (answer = 42)");
    ("single scan", static, true, "retrieve (h.id, h.seq) where h.amount = 69400");
    ("single keyed", static, true, "retrieve (h.id, h.seq) where h.id = 500");
    ("single range", static, true,
     "retrieve (i.id, i.seq) where i.id >= 100 and i.id <= 140");
    ("single fence", temporal, true,
     {|retrieve (h.id, h.seq) where h.amount = 69400 when h overlap "now"|});
    ("single keyed isam fence", temporal, true,
     {|retrieve (i.id, i.seq) where i.id = 500 when i overlap "now"|});
    ("rollback scan", temporal, true,
     {|retrieve (h.id, h.seq) as of "08:00 1/1/80"|});
    ("tuple substitution", temporal, true,
     {|retrieve (h.id, i.id, i.amount) where h.id = i.id and i.id < 4
       when h overlap i and i overlap "now"|});
    ("detach both", temporal, false,
     {|retrieve (h.id, h.seq, i.id, i.seq, i.amount)
       valid from start of (h overlap i) to end of (h extend i)
       where h.id = 500 and i.amount = 73700
       when h overlap i
       as of "now"|});
    ("nested scan", temporal, false,
     {|retrieve (h.id, h.seq, i.id, i.seq, i.amount)
       valid from start of h to end of i
       when start of h precede i
       as of "4:00 1/1/80"|});
    ("nested general", temporal, true,
     {|retrieve (h.id, i.id, g.id) where h.id = 500 and i.amount = 73700 and g.id = 7 when g overlap "now"|});
    ("nested general probe", temporal, true,
     {|retrieve (h.id, i.id, g.id) where h.id = 500 and i.amount = 73700 and g.id = i.id|});
    ("tjoin overlap on", temporal, true,
     {|retrieve (h.id, i.id) where h.amount = i.amount when h overlap i|});
    ("tjoin precede", temporal, true,
     {|retrieve (h.id, h.seq, i.id, i.seq, i.amount)
       valid from start of h to end of i
       when start of h precede i
       as of "4:00 1/1/80"|});
    ("by-aggregate", temporal, true,
     {|retrieve (h.id, n = count(h.seq by h.id)) where h.id = 500|});
    ("coalesced", temporal, true,
     {|retrieve coalesced (h.id) where h.id = 500|});
    ("coalesced aggregate", temporal, true,
     {|retrieve coalesced (n = count(i.id)) where i.id < 3|});
  ]

(* Captured from the executor; a change to any line here is a change to
   what [\explain] or explain analyze reports. *)
let golden =
  [
    ( "const emit @ 1 workers",
      {|constant emit
batch pipeline [batch=64]
  emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve constant emit  [r0 w0 s0 t0 b0]
  emit  [r0 w0 s0 t1 b1]
parallel: off (workers=1)
|} );
    ( "const emit @ 4 workers",
      {|constant emit
batch pipeline [batch=64]
  emit
parallel: off (workers=4, no driving scan)
isolation: serialized (writer)
--
retrieve constant emit  [r0 w0 s0 t0 b0]
  emit  [r0 w0 s0 t1 b1]
parallel: off (workers=4, no driving scan)
|} );
    ( "single scan @ 1 workers",
      {|scan(h)
batch pipeline [batch=64]
  scan(h) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve scan(h)  [r0 w0 s0 t0 b0]
  scan(h)  [r114 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: off (workers=1)
|} );
    ( "single scan @ 4 workers",
      {|scan(h)
batch pipeline [batch=64]
  scan(h) -> emit
parallel: 4 workers, scan(h) in 4 partitions (114 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve scan(h)  [r0 w0 s0 t0 b0]
  scan(h)  [r0 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
    partition 0  [r28 w0 s0 t1 b0]
    partition 1  [r29 w0 s0 t0 b0]
    partition 2  [r28 w0 s0 t0 b0]
    partition 3  [r29 w0 s0 t0 b0]
parallel: 4 workers, scan(h) in 4 partitions (114 live pages, 0 shard-pruned)
|} );
    ( "single keyed @ 1 workers",
      {|keyed(h)
batch pipeline [batch=64]
  keyed(h) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve keyed(h)  [r0 w0 s0 t0 b0]
  keyed(h)  [r1 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: off (workers=1)
|} );
    ( "single keyed @ 4 workers",
      {|keyed(h)
batch pipeline [batch=64]
  keyed(h) -> emit
parallel: off (workers=4, h does not fan out)
isolation: serialized (writer)
--
retrieve keyed(h)  [r0 w0 s0 t0 b0]
  keyed(h)  [r1 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: off (workers=4, h does not fan out)
|} );
    ( "single range @ 1 workers",
      {|range(i)
batch pipeline [batch=64]
  range(i) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve range(i)  [r0 w0 s0 t0 b0]
  range(i)  [r6 w0 s0 t41 b1]
    emit  [r0 w0 s0 t41 b1]
parallel: off (workers=1)
|} );
    ( "single range @ 4 workers",
      {|range(i)
batch pipeline [batch=64]
  range(i) -> emit
parallel: 4 workers, range(i) in 4 partitions (115 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve range(i)  [r0 w0 s0 t0 b0]
  range(i)  [r1 w0 s0 t41 b1]
    emit  [r0 w0 s0 t41 b1]
    partition 0  [r1 w0 s0 t8 b0]
    partition 1  [r1 w0 s0 t9 b0]
    partition 2  [r1 w0 s0 t9 b0]
    partition 3  [r2 w0 s0 t15 b0]
parallel: 4 workers, range(i) in 4 partitions (115 live pages, 0 shard-pruned)
|} );
    ( "single fence @ 1 workers",
      {|fence[tx,valid@"now"](scan(h))
batch pipeline [batch=64]
  fence[tx,valid@"now"](scan(h)) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx,valid@"now"](scan(h))  [r0 w0 s0 t0 b0]
  fence[tx,valid@"now"](scan(h))  [r640 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: off (workers=1)
|} );
    ( "single fence @ 4 workers",
      {|fence[tx,valid@"now"](scan(h))
batch pipeline [batch=64]
  fence[tx,valid@"now"](scan(h)) -> emit
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve fence[tx,valid@"now"](scan(h))  [r0 w0 s0 t0 b0]
  fence[tx,valid@"now"](scan(h))  [r0 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
    partition 0  [r160 w0 s0 t0 b0]
    partition 1  [r160 w0 s0 t1 b0]
    partition 2  [r160 w0 s0 t0 b0]
    partition 3  [r160 w0 s0 t0 b0]
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
|} );
    ( "single keyed isam fence @ 1 workers",
      {|fence[tx,valid@"now"](keyed(i))
batch pipeline [batch=64]
  fence[tx,valid@"now"](keyed(i)) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx,valid@"now"](keyed(i))  [r0 w0 s0 t0 b0]
  fence[tx,valid@"now"](keyed(i))  [r6 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: off (workers=1)
|} );
    ( "single keyed isam fence @ 4 workers",
      {|fence[tx,valid@"now"](keyed(i))
batch pipeline [batch=64]
  fence[tx,valid@"now"](keyed(i)) -> emit
parallel: declined (one partition): i has 5 post-prune pages
isolation: serialized (writer)
--
retrieve fence[tx,valid@"now"](keyed(i))  [r0 w0 s0 t0 b0]
  fence[tx,valid@"now"](keyed(i))  [r6 w0 s0 t1 b1]
    emit  [r0 w0 s0 t1 b1]
parallel: declined (one partition): i has 5 post-prune pages
|} );
    ( "rollback scan @ 1 workers",
      {|fence[tx](scan(h))
batch pipeline [batch=64]
  fence[tx](scan(h)) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx](scan(h))  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r10 w0 s630 t10 b1]
    emit  [r0 w0 s0 t10 b1]
parallel: off (workers=1)
|} );
    ( "rollback scan @ 4 workers",
      {|fence[tx](scan(h))
batch pipeline [batch=64]
  fence[tx](scan(h)) -> emit
parallel: 4 workers, scan(h) in 4 partitions (10 live pages, 630 shard-pruned)
isolation: serialized (writer)
--
retrieve fence[tx](scan(h))  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s590 t10 b1]
    emit  [r0 w0 s0 t10 b1]
    partition 0  [r2 w0 s8 t2 b0]
    partition 1  [r3 w0 s12 t3 b0]
    partition 2  [r2 w0 s8 t2 b0]
    partition 3  [r3 w0 s12 t3 b0]
parallel: 4 workers, scan(h) in 4 partitions (10 live pages, 630 shard-pruned)
|} );
    ( "tuple substitution @ 1 workers",
      {|detach(i) then substitute into h via i.id
batch pipeline [batch=64]
  detach(fence[tx,valid@"now"](scan(i)))
  scan(i') -> probe(h.id<-i.id) -> filter(2) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve detach(i) then substitute into h via i.id  [r0 w0 s0 t0 b0]
  detach(fence[tx,valid@"now"](scan(i)))  [r640 w1 s0 t4 b0]
  scan(i')  [r1 w0 s0 t4 b1]
    probe(h.id<-i.id)  [r20 w0 s0 t12 b1]
      filter(2)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
parallel: off (workers=1)
|} );
    ( "tuple substitution @ 4 workers",
      {|detach(i) then substitute into h via i.id
batch pipeline [batch=64]
  detach(fence[tx,valid@"now"](scan(i)))
  scan(i') -> probe(h.id<-i.id) -> filter(2) -> emit
parallel: off (workers=4, no driving scan)
parallel probes: h decided per key (floor 0 pages)
isolation: serialized (writer)
--
retrieve detach(i) then substitute into h via i.id  [r0 w0 s0 t0 b0]
  detach(fence[tx,valid@"now"](scan(i)))  [r640 w1 s0 t4 b0]
  scan(i')  [r1 w0 s0 t4 b1]
    probe(h.id<-i.id)  [r0 w0 s0 t12 b1]
      filter(2)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
      partition 0  [r1 w0 s0 t0 b0]
      partition 1  [r1 w0 s0 t1 b0]
      partition 2  [r1 w0 s0 t0 b0]
      partition 3  [r2 w0 s0 t2 b0]
      partition 0  [r1 w0 s0 t0 b0]
      partition 1  [r1 w0 s0 t1 b0]
      partition 2  [r1 w0 s0 t0 b0]
      partition 3  [r2 w0 s0 t2 b0]
      partition 0  [r1 w0 s0 t0 b0]
      partition 1  [r1 w0 s0 t1 b0]
      partition 2  [r1 w0 s0 t0 b0]
      partition 3  [r2 w0 s0 t2 b0]
      partition 0  [r1 w0 s0 t0 b0]
      partition 1  [r1 w0 s0 t1 b0]
      partition 2  [r1 w0 s0 t0 b0]
      partition 3  [r2 w0 s0 t2 b0]
parallel: off (workers=4, no driving scan)
parallel probes: h decided per key (floor 0 pages)
|} );
    ( "detach both @ 1 workers",
      {|detach(h) join detach(i)
batch pipeline [batch=64]
  detach(fence[tx](keyed(h)))
  detach(fence[tx](scan(i)))
  scan(h') -> nest(scan(i')) -> filter(1) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve detach(h) join detach(i)  [r0 w0 s0 t0 b0]
  detach(fence[tx](keyed(h)))  [r5 w1 s0 t3 b0]
  detach(fence[tx](scan(i)))  [r640 w1 s0 t3 b0]
  scan(h')  [r1 w0 s0 t3 b1]
    nest(scan(i'))  [r1 w0 s0 t9 b1]
      filter(1)  [r0 w0 s0 t5 b1]
        emit  [r0 w0 s0 t5 b1]
parallel: off (workers=1)
|} );
    ( "detach both @ 4 workers",
      {|detach(h) join detach(i)
batch pipeline [batch=64]
  detach(fence[tx](keyed(h)))
  detach(fence[tx](scan(i)))
  scan(h') -> nest(scan(i')) -> filter(1) -> emit
parallel: off (workers=4, no driving scan)
isolation: serialized (writer)
--
retrieve detach(h) join detach(i)  [r0 w0 s0 t0 b0]
  detach(fence[tx](keyed(h)))  [r5 w1 s0 t3 b0]
  detach(fence[tx](scan(i)))  [r640 w1 s0 t3 b0]
  scan(h')  [r1 w0 s0 t3 b1]
    nest(scan(i'))  [r1 w0 s0 t9 b1]
      filter(1)  [r0 w0 s0 t5 b1]
        emit  [r0 w0 s0 t5 b1]
parallel: off (workers=4, no driving scan)
|} );
    ( "nested scan @ 1 workers",
      {|nested scan(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> filter(1) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve nested scan(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r4 w0 s636 t4 b1]
    nest(fence[tx](scan(i)))  [r24 w0 s2536 t24 b1]
      filter(1)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
parallel: off (workers=1)
|} );
    ( "nested scan @ 4 workers",
      {|nested scan(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> filter(1) -> emit
parallel: 4 workers, scan(h) in 4 partitions (4 live pages, 636 shard-pruned)
isolation: serialized (writer)
--
retrieve nested scan(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s620 t4 b1]
    nest(fence[tx](scan(i)))  [r24 w0 s2536 t24 b1]
      filter(1)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
    partition 0  [r1 w0 s4 t1 b0]
    partition 1  [r1 w0 s4 t1 b0]
    partition 2  [r1 w0 s4 t1 b0]
    partition 3  [r1 w0 s4 t1 b0]
parallel: 4 workers, scan(h) in 4 partitions (4 live pages, 636 shard-pruned)
|} );
    ( "nested general @ 1 workers",
      {|nested scans(h, i, g)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> nest(fence[tx,valid@"now"](scan(g))) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve nested scans(h, i, g)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r640 w0 s0 t3 b1]
    nest(fence[tx](scan(i)))  [r1920 w0 s0 t9 b1]
      nest(fence[tx,valid@"now"](scan(g)))  [r5760 w0 s0 t9 b1]
        emit  [r0 w0 s0 t9 b1]
parallel: off (workers=1)
|} );
    ( "nested general @ 4 workers",
      {|nested scans(h, i, g)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> nest(fence[tx,valid@"now"](scan(g))) -> emit
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve nested scans(h, i, g)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s0 t3 b1]
    nest(fence[tx](scan(i)))  [r1920 w0 s0 t9 b1]
      nest(fence[tx,valid@"now"](scan(g)))  [r5760 w0 s0 t9 b1]
        emit  [r0 w0 s0 t9 b1]
    partition 0  [r160 w0 s0 t0 b0]
    partition 1  [r160 w0 s0 t0 b0]
    partition 2  [r160 w0 s0 t0 b0]
    partition 3  [r160 w0 s0 t3 b0]
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
|} );
    ( "nested general probe @ 1 workers",
      {|nested scans(h, i, g) with g probed via i.id
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> probe(g.id<-i.id) -> filter(1) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve nested scans(h, i, g) with g probed via i.id  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r640 w0 s0 t3 b1]
    nest(fence[tx](scan(i)))  [r1920 w0 s0 t9 b1]
      probe(g.id<-i.id)  [r45 w0 s0 t27 b1]
        filter(1)  [r0 w0 s0 t27 b1]
          emit  [r0 w0 s0 t27 b1]
parallel: off (workers=1)
|} );
    ( "nested general probe @ 4 workers",
      {|nested scans(h, i, g) with g probed via i.id
batch pipeline [batch=64]
  fence[tx](scan(h)) -> nest(fence[tx](scan(i))) -> probe(g.id<-i.id) -> filter(1) -> emit
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
parallel probes: g decided per key (floor 0 pages)
isolation: serialized (writer)
--
retrieve nested scans(h, i, g) with g probed via i.id  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s0 t3 b1]
    nest(fence[tx](scan(i)))  [r1920 w0 s0 t9 b1]
      probe(g.id<-i.id)  [r0 w0 s0 t27 b1]
        filter(1)  [r0 w0 s0 t27 b1]
          emit  [r0 w0 s0 t27 b1]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
        partition 0  [r1 w0 s0 t0 b0]
        partition 1  [r1 w0 s0 t1 b0]
        partition 2  [r1 w0 s0 t0 b0]
        partition 3  [r2 w0 s0 t2 b0]
    partition 0  [r160 w0 s0 t0 b0]
    partition 1  [r160 w0 s0 t0 b0]
    partition 2  [r160 w0 s0 t0 b0]
    partition 3  [r160 w0 s0 t3 b0]
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
parallel probes: g decided per key (floor 0 pages)
|} );
    ( "tjoin overlap on @ 1 workers",
      {|temporal overlap join(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> tjoin[overlap on amount=amount](fence[tx](scan(i))) -> filter(2) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve temporal overlap join(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r640 w0 s0 t3072 b48]
    tjoin[overlap on amount=amount](fence[tx](scan(i)))  [r640 w0 s0 t50 b1]
      filter(2)  [r0 w0 s0 t50 b1]
        emit  [r0 w0 s0 t50 b1]
parallel: off (workers=1)
|} );
    ( "tjoin overlap on @ 4 workers",
      {|temporal overlap join(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> tjoin[overlap on amount=amount](fence[tx](scan(i))) -> filter(2) -> emit
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
parallel tjoin inner: i decided after envelope narrowing (floor 0 pages)
isolation: serialized (writer)
--
retrieve temporal overlap join(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s0 t3072 b48]
    tjoin[overlap on amount=amount](fence[tx](scan(i)))  [r0 w0 s0 t50 b1]
      filter(2)  [r0 w0 s0 t50 b1]
        emit  [r0 w0 s0 t50 b1]
      partition 0  [r160 w0 s0 t768 b0]
      partition 1  [r160 w0 s0 t768 b0]
      partition 2  [r160 w0 s0 t768 b0]
      partition 3  [r160 w0 s0 t768 b0]
    partition 0  [r160 w0 s0 t768 b0]
    partition 1  [r160 w0 s0 t768 b0]
    partition 2  [r160 w0 s0 t768 b0]
    partition 3  [r160 w0 s0 t768 b0]
parallel: 4 workers, scan(h) in 4 partitions (640 live pages, 0 shard-pruned)
parallel tjoin inner: i decided after envelope narrowing (floor 0 pages)
|} );
    ( "tjoin precede @ 1 workers",
      {|temporal precede join(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> tjoin[precede](fence[tx](scan(i))) -> filter(1) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve temporal precede join(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r4 w0 s636 t4 b1]
    tjoin[precede](fence[tx](scan(i)))  [r6 w0 s634 t4 b1]
      filter(1)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
parallel: off (workers=1)
|} );
    ( "tjoin precede @ 4 workers",
      {|temporal precede join(h, i)
batch pipeline [batch=64]
  fence[tx](scan(h)) -> tjoin[precede](fence[tx](scan(i))) -> filter(1) -> emit
parallel: 4 workers, scan(h) in 4 partitions (4 live pages, 636 shard-pruned)
parallel tjoin inner: i decided after envelope narrowing (floor 0 pages)
isolation: serialized (writer)
--
retrieve temporal precede join(h, i)  [r0 w0 s0 t0 b0]
  fence[tx](scan(h))  [r0 w0 s620 t4 b1]
    tjoin[precede](fence[tx](scan(i)))  [r0 w0 s610 t4 b1]
      filter(1)  [r0 w0 s0 t4 b1]
        emit  [r0 w0 s0 t4 b1]
      partition 0  [r1 w0 s4 t1 b0]
      partition 1  [r2 w0 s8 t2 b0]
      partition 2  [r1 w0 s4 t1 b0]
      partition 3  [r2 w0 s8 t2 b0]
    partition 0  [r1 w0 s4 t1 b0]
    partition 1  [r1 w0 s4 t1 b0]
    partition 2  [r1 w0 s4 t1 b0]
    partition 3  [r1 w0 s4 t1 b0]
parallel: 4 workers, scan(h) in 4 partitions (4 live pages, 636 shard-pruned)
parallel tjoin inner: i decided after envelope narrowing (floor 0 pages)
|} );
    ( "by-aggregate @ 1 workers",
      {|fence[tx](keyed(h))
batch pipeline [batch=64]
  fence[tx](keyed(h)) -> emit
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx](keyed(h))  [r0 w0 s0 t0 b0]
  agg-scan(h)  [r640 w0 s0 t3072 b0]
  fence[tx](keyed(h))  [r5 w0 s0 t3 b1]
    emit  [r0 w0 s0 t3 b1]
parallel: off (workers=1)
|} );
    ( "by-aggregate @ 4 workers",
      {|fence[tx](keyed(h))
batch pipeline [batch=64]
  fence[tx](keyed(h)) -> emit
parallel: 4 workers, probe(h) in 4 partitions (5 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve fence[tx](keyed(h))  [r0 w0 s0 t0 b0]
  agg-scan(h)  [r640 w0 s0 t3072 b0]
  fence[tx](keyed(h))  [r0 w0 s0 t3 b1]
    emit  [r0 w0 s0 t3 b1]
    partition 0  [r1 w0 s0 t0 b0]
    partition 1  [r1 w0 s0 t1 b0]
    partition 2  [r1 w0 s0 t0 b0]
    partition 3  [r2 w0 s0 t2 b0]
parallel: 4 workers, probe(h) in 4 partitions (5 live pages, 0 shard-pruned)
|} );
    ( "coalesced @ 1 workers",
      {|fence[tx](keyed(h))
batch pipeline [batch=64]
  fence[tx](keyed(h)) -> emit -> coalesce
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx](keyed(h))  [r0 w0 s0 t0 b0]
  fence[tx](keyed(h))  [r5 w0 s0 t3 b1]
    emit  [r0 w0 s0 t3 b1]
      coalesce  [r0 w0 s0 t1 b0]
parallel: off (workers=1)
|} );
    ( "coalesced @ 4 workers",
      {|fence[tx](keyed(h))
batch pipeline [batch=64]
  fence[tx](keyed(h)) -> emit -> coalesce
parallel: 4 workers, probe(h) in 4 partitions (5 live pages, 0 shard-pruned)
isolation: serialized (writer)
--
retrieve fence[tx](keyed(h))  [r0 w0 s0 t0 b0]
  fence[tx](keyed(h))  [r0 w0 s0 t3 b1]
    emit  [r0 w0 s0 t3 b1]
      coalesce  [r0 w0 s0 t1 b0]
    partition 0  [r1 w0 s0 t0 b0]
    partition 1  [r1 w0 s0 t1 b0]
    partition 2  [r1 w0 s0 t0 b0]
    partition 3  [r2 w0 s0 t2 b0]
parallel: 4 workers, probe(h) in 4 partitions (5 live pages, 0 shard-pruned)
|} );
    ( "coalesced aggregate @ 1 workers",
      {|fence[tx](range(i))
batch pipeline [batch=64]
  fence[tx](range(i)) -> emit(agg) -> temporal-agg
parallel: off (workers=1)
isolation: serialized (writer)
--
retrieve fence[tx](range(i))  [r0 w0 s0 t0 b0]
  fence[tx](range(i))  [r5 w0 s0 t9 b1]
    emit(agg)  [r0 w0 s0 t9 b1]
      temporal-agg  [r0 w0 s0 t3 b0]
parallel: off (workers=1)
|} );
    ( "coalesced aggregate @ 4 workers",
      {|fence[tx](range(i))
batch pipeline [batch=64]
  fence[tx](range(i)) -> emit(agg) -> temporal-agg
parallel: declined (one partition): i has 5 post-prune pages
isolation: serialized (writer)
--
retrieve fence[tx](range(i))  [r0 w0 s0 t0 b0]
  fence[tx](range(i))  [r5 w0 s0 t9 b1]
    emit(agg)  [r0 w0 s0 t9 b1]
      temporal-agg  [r0 w0 s0 t3 b0]
parallel: declined (one partition): i has 5 post-prune pages
|} );
  ]

let check_case (case, db, tjoin, src) workers () =
  let w = Lazy.force db in
  let label = Printf.sprintf "%s @ %d workers" case workers in
  let got = report w ~workers ~tjoin src in
  match List.assoc_opt label golden with
  | Some expected -> Alcotest.(check string) label expected got
  | None -> Alcotest.failf "no golden for %s:\n%s" label got

let suites =
  [
    ( "explain",
      List.concat_map
        (fun ((case, _, _, _) as shape) ->
          List.map
            (fun workers ->
              Alcotest.test_case
                (Printf.sprintf "%s @ %d workers" case workers)
                `Quick (check_case shape workers))
            [ 1; 4 ])
        shapes );
  ]
