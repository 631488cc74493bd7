(* Fault injection and crash consistency.

   The centrepiece is the crash-at-every-write harness: a reference run
   counts the page writes a small TQuel workload performs, then the
   workload is replayed once per write position with a plan that kills
   the process right after that write.  Every crash site must reopen to
   a checksum-clean database whose contents are a prefix of the appended
   sequence — never a suffix, never garbage. *)

module Disk = Tdb_storage.Disk
module Page = Tdb_storage.Page
module Fault = Tdb_storage.Fault
module Database = Tdb_core.Database
module Engine = Tdb_core.Engine

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tdb_fault_%d_%d" (Unix.getpid ()) !counter)
    in
    Sys.mkdir dir 0o755;
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- determinism ------------------------------------------------------- *)

let test_determinism () =
  (* The same seed must tear the same writes at the same lengths. *)
  let torn_lengths seed =
    let fault = Fault.create ~seed ~torn_write_at:3 () in
    let acc = ref [] in
    for _ = 1 to 5 do
      (match Fault.on_write fault ~len:Page.size with
      | `Torn n -> acc := n :: !acc
      | `Ok -> ()
      | _ -> Alcotest.fail "unexpected fault decision")
    done;
    !acc
  in
  Alcotest.(check (list int)) "same seed, same tears" (torn_lengths 42)
    (torn_lengths 42);
  let torn a = List.length (torn_lengths a) in
  Alcotest.(check int) "exactly one tear per plan" 1 (torn 42);
  Alcotest.(check int) "other seeds tear once too" 1 (torn 43)

let test_counter_plan_is_transparent () =
  let fault = Fault.create () in
  for _ = 1 to 4 do
    match Fault.on_write fault ~len:Page.size with
    | `Ok -> ()
    | _ -> Alcotest.fail "counting plan must not inject"
  done;
  (match Fault.on_read fault ~len:Page.size with
  | `Ok -> ()
  | _ -> Alcotest.fail "counting plan must not inject");
  Alcotest.(check int) "writes counted" 4 (Fault.writes fault);
  Alcotest.(check int) "reads counted" 1 (Fault.reads fault)

let test_dead_plan_raises () =
  let fault = Fault.create ~crash_after_write:1 () in
  (match Fault.on_write fault ~len:Page.size with
  | `Crash_after -> ()
  | _ -> Alcotest.fail "expected crash-after on write 1");
  Alcotest.(check bool) "plan dead" true (Fault.is_dead fault);
  (match Fault.on_write fault ~len:Page.size with
  | exception Fault.Crashed -> ()
  | _ -> Alcotest.fail "dead plan accepted a write");
  match Fault.on_read fault ~len:Page.size with
  | exception Fault.Crashed -> ()
  | _ -> Alcotest.fail "dead plan accepted a read"

(* --- the workload ------------------------------------------------------ *)

let n_appends = 12

let setup_src =
  "create persistent interval emp (name = c20, salary = i4);\n\
   range of e is emp;"

let append_src i =
  Printf.sprintf "append to emp (name = \"w%03d\", salary = %d);" i (1000 + i)

let must_ok db src =
  match Engine.execute db src with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("statement failed: " ^ e)

(* Runs setup + appends, checkpointing after each append so every append
   reaches the disk (otherwise the buffer pool absorbs the whole workload
   and only the final flush writes pages).  Returns whether the plan
   killed the process part-way.  Statements after the crash are not
   attempted: the process is dead. *)
let run_workload db =
  try
    must_ok db setup_src;
    for i = 1 to n_appends do
      (match Engine.execute db (append_src i) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("append failed: " ^ e));
      Database.sync db
    done;
    `Ran
  with Fault.Crashed -> `Crashed

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The committed names, in scan order.  A crash can now land inside the
   setup statement's catalog replacement, in which case the reopened
   database legitimately has no [emp] at all — the empty prefix. *)
let surviving_names db =
  match Engine.execute db "range of e is emp; retrieve (e.name);" with
  | Ok outcomes ->
      List.concat_map
        (function
          | Engine.Rows { tuples; _ } ->
              List.map
                (fun t ->
                  match t.(0) with
                  | Tdb_relation.Value.Str s -> s
                  | v -> Tdb_relation.Value.to_string v)
                tuples
          | _ -> [])
        outcomes
  | Error e when contains e "does not exist" -> []
  | Error e -> Alcotest.fail ("survivor scan failed: " ^ e)

let expected_prefix k = List.init k (fun i -> Printf.sprintf "w%03d" (i + 1))

let is_prefix_of_appends names =
  names = expected_prefix (List.length names)

(* Counts the page writes the full workload performs against real files. *)
let count_workload_writes () =
  with_dir (fun dir ->
      let fault = Fault.create () in
      match Database.create ~dir ~fault () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          (match run_workload db with
          | `Ran -> ()
          | `Crashed -> Alcotest.fail "counting run crashed");
          Database.close db;
          Fault.writes fault)

(* --- crash at every write --------------------------------------------- *)

let test_crash_after_every_write () =
  let total_writes = count_workload_writes () in
  Alcotest.(check bool)
    (Printf.sprintf "workload performs enough writes (%d)" total_writes)
    true
    (total_writes >= n_appends);
  for k = 1 to total_writes do
    with_dir (fun dir ->
        (* Run until the crash... *)
        let fault = Fault.create ~crash_after_write:k () in
        (match Database.create ~dir ~fault () with
        | Error e -> Alcotest.fail e
        | Ok db ->
            (match run_workload db with `Ran | `Crashed -> ());
            Database.abandon db);
        (* ...then reopen without faults, as a fresh process would. *)
        match Database.create ~dir () with
        | Error e ->
            Alcotest.fail (Printf.sprintf "crash at write %d: reopen: %s" k e)
        | Ok db ->
            List.iter
              (fun (name, r) ->
                Alcotest.fail
                  (Printf.sprintf
                     "crash at write %d: page-atomic crash needed repair of \
                      %s: %s"
                     k name
                     (Format.asprintf "%a" Disk.pp_recovery r)))
              (Database.recoveries db);
            let names = surviving_names db in
            Alcotest.(check bool)
              (Printf.sprintf
                 "crash at write %d: %d survivors form a prefix" k
                 (List.length names))
              true
              (is_prefix_of_appends names);
            Database.close db)
  done

let test_torn_crash_recovers_or_refuses () =
  (* The torn-crash model: the k-th write persists only a prefix of the
     page.  Reopening must either repair (torn tail) or refuse
     (mid-file damage) — never serve unverified bytes. *)
  let total_writes = count_workload_writes () in
  let repaired = ref 0 in
  let refused = ref 0 in
  for k = 1 to total_writes do
    with_dir (fun dir ->
        let fault = Fault.create ~seed:(0xC0FFEE + k) ~crash_at_write:k () in
        (match Database.create ~dir ~fault () with
        | Error e -> Alcotest.fail e
        | Ok db ->
            (match run_workload db with `Ran | `Crashed -> ());
            Database.abandon db);
        match Database.create ~dir () with
        | exception Tdb_error.Error (Tdb_error.Corruption, _) -> incr refused
        | Error e ->
            Alcotest.fail (Printf.sprintf "torn write %d: reopen: %s" k e)
        | Ok db ->
            (* Repair work now comes in two flavours: page-level torn-tail
               truncation (Disk recovery) and journal replay/rollback. *)
            if
              Database.recoveries db <> []
              || Database.journal_recovery db <> None
            then incr repaired;
            let names = surviving_names db in
            Alcotest.(check bool)
              (Printf.sprintf "torn write %d: clean prefix" k)
              true
              (is_prefix_of_appends names);
            Database.close db)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some torn tails were repaired (%d repaired, %d refused)"
       !repaired !refused)
    true (!repaired > 0)

(* --- checksum end to end ----------------------------------------------- *)

let test_flipped_byte_never_served () =
  (* Flip one byte in the data page file of a closed database; reopening
     and scanning must report Corruption, not altered tuples. *)
  with_dir (fun dir ->
      (match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          must_ok db setup_src;
          for i = 1 to 3 do
            must_ok db (append_src i)
          done;
          Database.close db);
      let path = Filename.concat dir "emp.pages" in
      let size = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "data file has pages" true (size >= Page.size);
      (* Middle of the first page: tuple payload, not the trailer. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      match Database.create ~dir () with
      | exception Tdb_error.Error (Tdb_error.Corruption, _) -> ()
      | Error _ -> Alcotest.fail "corruption misreported as a soft error"
      | Ok db -> (
          (* A single bad page that happens to be the tail may have been
             truncated by recovery; in that case the flip must not appear
             in the data.  Otherwise the scan must raise Corruption. *)
          match surviving_names db with
          | names ->
              Database.close db;
              Alcotest.(check bool) "served names untainted" true
                (is_prefix_of_appends names)
          | exception Tdb_error.Error (Tdb_error.Corruption, _) ->
              Database.abandon db))

let test_eio_read_surfaces_as_io_error () =
  with_dir (fun dir ->
      (match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          must_ok db setup_src;
          for i = 1 to 3 do
            must_ok db (append_src i)
          done;
          Database.close db);
      let fault = Fault.create ~eio_read_at:1 () in
      match Database.create ~dir ~fault () with
      | Error e -> Alcotest.fail e
      | Ok db -> (
          match surviving_names db with
          | exception Tdb_error.Error (Tdb_error.Io, _) ->
              Database.abandon db
          | _ ->
              Database.abandon db;
              Alcotest.fail "injected EIO did not surface as an Io error"))

(* --- faults under parallel execution ---------------------------------- *)

(* A read fault firing inside a worker partition must surface exactly as
   it does sequentially: one structured Io error (exit code 4) after all
   workers join — no hang, no crash, and no partially emitted rows. *)
let test_fault_in_worker_partition () =
  List.iter
    (fun (label, fault) ->
      with_dir (fun dir ->
          (match Database.create ~dir () with
          | Error e -> Alcotest.fail e
          | Ok db ->
              must_ok db setup_src;
              for i = 1 to 60 do
                must_ok db (append_src i)
              done;
              Database.close db);
          match Database.create ~dir ~fault () with
          | Error e -> Alcotest.fail e
          | Ok db ->
              Fun.protect
                ~finally:(fun () -> Database.abandon db)
                (fun () ->
                  let rel =
                    match Database.find_relation db "emp" with
                    | Some r -> r
                    | None -> Alcotest.fail "emp missing"
                  in
                  Alcotest.(check bool)
                    (label ^ ": scan spans several partitions")
                    true
                    ((Option.get
                        (Tdb_storage.Relation_file.partition_preview rel
                           ~parts:4 Tdb_storage.Relation_file.Full_scan))
                       .Tdb_storage.Relation_file.pp_parts
                    >= 2);
                  let r =
                    match
                      Tdb_tquel.Parser.parse_statement "retrieve (e.name)"
                    with
                    | Ok (Tdb_tquel.Ast.Retrieve r) -> r
                    | _ -> Alcotest.fail "parse failed"
                  in
                  let emitted = ref 0 in
                  (match
                     Tdb_query.Executor.run_retrieve
                       ~config:
                         { Tdb_query.Executor.default_config with workers = 4 }
                       ~now:(Database.now db)
                       ~sources:[ { Tdb_query.Executor.var = "e"; rel } ]
                       r
                       ~on_tuple:(fun _ -> incr emitted)
                   with
                  | exception Tdb_error.Error (Tdb_error.Io, _) -> ()
                  | _ ->
                      Alcotest.fail
                        (label ^ ": injected fault did not surface as Io"));
                  Alcotest.(check int) (label ^ ": no partial rows") 0 !emitted;
                  Alcotest.(check int)
                    (label ^ ": Io maps to exit code 4")
                    4
                    (Tdb_error.exit_code Tdb_error.Io))))
    [
      ("eio", Fault.create ~eio_read_at:2 ());
      ("short read", Fault.create ~short_read_at:2 ());
    ]

let test_exit_codes_distinct () =
  let open Tdb_error in
  let codes = List.map exit_code [ Query; Corruption; Io; Internal ] in
  Alcotest.(check (list int)) "stable class exit codes" [ 2; 3; 4; 5 ] codes;
  Alcotest.(check int) "distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* === the crash-point oracle ===========================================

   A seeded workload of multi-row replaces and deletes, two
   reorganizations (every record migrates), and a bulk copy-from (which
   checkpoints mid-statement).  A reference run snapshots the complete
   stored state — every relation, every version, implicit attributes
   included — after each statement.  Then the workload is replayed once
   per write position with a crash injected there; the reopened database
   must land on exactly one of those statement-boundary snapshots:
   recovery may lose whole trailing statements, never halves of one. *)

let oracle_seed =
  match Sys.getenv_opt "TDB_ORACLE_SEED" with
  | None -> 60102
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> 60102)

type step = Stmt of string | Sync

(* Content varies with the seed so CI's seed sweep exercises different
   page layouts and victim sets; the step structure is fixed. *)
let oracle_steps dir seed =
  let rng = Random.State.make [| seed; 0xfa17 |] in
  let datafile = Filename.concat dir "aux.copy" in
  let oc = open_out datafile in
  for _ = 1 to 300 do
    Printf.fprintf oc "%d\n" (Random.State.int rng 1000)
  done;
  close_out oc;
  let budget () = Random.State.int rng 90 in
  List.concat
    [
      [
        Stmt "create persistent interval dept (dname = c12, budget = i4)";
        Stmt "range of d is dept";
      ];
      List.init 8 (fun i ->
          Stmt
            (Printf.sprintf "append to dept (dname = \"d%02d\", budget = %d)" i
               (budget ())));
      [
        Sync;
        Stmt
          (Printf.sprintf "replace d (budget = %d) where d.budget < %d"
             (budget ()) (budget ()));
        Stmt "modify dept to hash on dname where fillfactor = 50";
        Stmt (Printf.sprintf "delete d where d.budget < %d" (budget ()));
        Sync;
        Stmt
          (Printf.sprintf "append to dept (dname = \"d99\", budget = %d)"
             (budget ()));
        Stmt "modify dept to isam on dname where fillfactor = 80";
        Stmt
          (Printf.sprintf "replace d (budget = %d) where d.budget >= %d"
             (budget ()) (budget ()));
        Stmt "create aux (g = i4)";
        Stmt (Printf.sprintf "copy aux from %S" datafile);
        Stmt "range of a is aux";
        Stmt
          (Printf.sprintf "delete a where a.g < %d" (Random.State.int rng 1000));
        Sync;
      ];
    ]

(* The full stored state, rendered order-independently: relation name
   plus every attribute of every version (reorganizations permute the
   physical order; sorting makes the dump a function of the logical
   state alone). *)
let dump_state db =
  let rows = ref [] in
  List.iter
    (fun name ->
      match Database.find_relation db name with
      | None -> ()
      | Some rel ->
          Tdb_storage.Relation_file.scan rel (fun _ tu ->
              rows :=
                (name ^ "|"
                ^ String.concat "|"
                    (Array.to_list
                       (Array.map Tdb_relation.Value.to_string tu)))
                :: !rows))
    (Database.relation_names db);
  List.sort compare !rows

let run_step db = function
  | Sync -> Database.sync db
  | Stmt s -> (
      match Engine.execute_one db s with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "oracle step %S failed: %s" s e))

(* Reference run: every statement-boundary state, plus the write count. *)
let oracle_reference dir steps =
  let fault = Fault.create () in
  match Database.create ~dir ~fault () with
  | Error e -> Alcotest.fail e
  | Ok db ->
      let snapshots = Hashtbl.create 64 in
      let remember i = Hashtbl.replace snapshots (dump_state db) i in
      remember (-1);
      List.iteri
        (fun i step ->
          run_step db step;
          remember i)
        steps;
      Database.close db;
      (snapshots, Fault.writes fault)

let test_crash_point_oracle () =
  let total_writes, snapshots =
    with_dir (fun dir ->
        let s, w = oracle_reference dir (oracle_steps dir oracle_seed) in
        (w, s))
  in
  Alcotest.(check bool)
    (Printf.sprintf "oracle workload performs enough writes (%d)" total_writes)
    true (total_writes >= 30);
  let check_crash_run ~label ~torn k =
    with_dir (fun dir ->
        let steps = oracle_steps dir oracle_seed in
        let fault =
          if torn then Fault.create ~seed:(oracle_seed + k) ~crash_at_write:k ()
          else Fault.create ~crash_after_write:k ()
        in
        (match Database.create ~dir ~fault () with
        | Error e -> Alcotest.fail e
        | Ok db ->
            (try List.iter (run_step db) steps with Fault.Crashed -> ());
            Database.abandon db);
        match Database.create ~dir () with
        | exception Tdb_error.Error (Tdb_error.Corruption, _) when torn ->
            (* refusing to serve torn mid-file damage is an acceptable
               outcome for a torn write, never for a clean one *)
            ()
        | Error e ->
            Alcotest.fail (Printf.sprintf "%s %d: reopen: %s" label k e)
        | Ok db ->
            let dump = dump_state db in
            Database.close db;
            if not (Hashtbl.mem snapshots dump) then
              Alcotest.fail
                (Printf.sprintf
                   "%s %d (TDB_ORACLE_SEED=%d): post-recovery state is not \
                    any statement boundary (%d rows)"
                   label k oracle_seed (List.length dump)))
  in
  for k = 1 to total_writes do
    check_crash_run ~label:"crash after write" ~torn:false k;
    check_crash_run ~label:"torn crash at write" ~torn:true k
  done

(* === journal durability unit tests ==================================== *)

(* A committed statement survives a crash even though its data pages
   were never flushed: the journal's post-images are the only durable
   copy, and replay reconstructs the pages from them. *)
let test_journal_commit_survives_unflushed_crash () =
  with_dir (fun dir ->
      (match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          must_ok db setup_src;
          Database.sync db;
          must_ok db (append_src 1);
          must_ok db (append_src 2);
          (* die without flushing the buffer pools *)
          Database.abandon db);
      match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          (match Database.journal_recovery db with
          | Some r ->
              Alcotest.(check bool) "statements were replayed" true
                (r.Tdb_storage.Journal.replayed >= 1)
          | None -> Alcotest.fail "expected a journal recovery report");
          Alcotest.(check (list string))
            "both committed appends replayed"
            [ "w001"; "w002" ] (surviving_names db);
          Database.close db)

(* An uncommitted statement disappears: the commit flush is this
   workload's only journal write, so tearing it leaves the statement
   without its commit record and recovery rolls it back. *)
let test_journal_uncommitted_rolls_back () =
  with_dir (fun dir ->
      (match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          must_ok db setup_src;
          must_ok db (append_src 1);
          Database.close db);
      (match Database.create ~dir ~fault:(Fault.create ~crash_at_write:1 ()) ()
       with
      | Error e -> Alcotest.fail e
      | Ok db ->
          (match Engine.execute db (append_src 2) with
          | exception Fault.Crashed -> ()
          | Ok _ -> Alcotest.fail "expected the commit flush to crash"
          | Error e -> Alcotest.fail e);
          Database.abandon db);
      match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          Alcotest.(check (list string))
            "the torn statement rolled back" [ "w001" ] (surviving_names db);
          Database.close db)

let journal_size dir =
  (Unix.stat (Tdb_storage.Journal.path ~dir)).Unix.st_size

let test_journal_checkpoint_truncates () =
  with_dir (fun dir ->
      match Database.create ~dir () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          Alcotest.(check bool) "journalling on by default" true
            (Database.journaling db);
          must_ok db setup_src;
          must_ok db (append_src 1);
          let before = journal_size dir in
          Alcotest.(check bool) "records accumulated" true (before > 8);
          Database.sync db;
          Alcotest.(check bool) "checkpoint truncated the journal" true
            (journal_size dir < before && journal_size dir <= 8);
          Database.close db)

let test_journal_disable () =
  with_dir (fun dir ->
      match Database.create ~dir ~journal:false () with
      | Error e -> Alcotest.fail e
      | Ok db ->
          Alcotest.(check bool) "journalling off" false (Database.journaling db);
          must_ok db setup_src;
          must_ok db (append_src 1);
          Database.sync db;
          Alcotest.(check bool) "no journal file written" false
            (Sys.file_exists (Tdb_storage.Journal.path ~dir));
          Database.close db)

(* === the atomic-file crash windows ===================================== *)

(* Directly probe both fault points in Atomic_file.write: a crash while
   writing the temp body, a torn temp body, and the window between the
   temp-file fsync and the rename.  The target file must read as the old
   content after every one of them. *)
let test_atomic_file_crash_windows () =
  with_dir (fun dir ->
      let path = Filename.concat dir "meta.txt" in
      let read_file () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Tdb_storage.Atomic_file.write ~path "old content";
      let crash_cases =
        [
          ("crash in temp body", Fault.create ~crash_after_write:1 ());
          ("torn temp body", Fault.create ~seed:7 ~crash_at_write:1 ());
          ("crash before rename", Fault.create ~crash_after_write:2 ());
        ]
      in
      List.iter
        (fun (label, fault) ->
          (match Tdb_storage.Atomic_file.write ~fault ~path "NEW CONTENT!" with
          | exception Fault.Crashed -> ()
          | () -> Alcotest.fail (label ^ ": expected a crash"));
          Alcotest.(check string)
            (label ^ ": old content intact")
            "old content" (read_file ()))
        crash_cases;
      (* the pre-rename window leaves a complete temp file behind; it
         must not shadow the real one on reread *)
      Alcotest.(check bool) "stray temp file is inert" true
        (read_file () = "old content");
      Tdb_storage.Atomic_file.write ~path "NEW CONTENT!";
      Alcotest.(check string) "faultless write lands" "NEW CONTENT!"
        (read_file ()))

(* The same windows at the database level: a crash exactly between the
   catalog's temp-file fsync and its rename must leave the old catalog
   (and the relations it describes) fully usable. *)
let test_catalog_and_clock_survive_atomic_crash () =
  for k = 1 to 4 do
    with_dir (fun dir ->
        (match Database.create ~dir () with
        | Error e -> Alcotest.fail e
        | Ok db ->
            must_ok db setup_src;
            for i = 1 to 3 do
              must_ok db (append_src i)
            done;
            Database.close db);
        (match Database.create ~dir ~fault:(Fault.create ~crash_after_write:k ())
               ()
         with
        | Error e -> Alcotest.fail e
        | Ok db ->
            (try
               (match
                  Engine.execute db "create persistent interval extra (x = i4);"
                with
               | Ok _ | Error _ -> ());
               Tdb_time.Clock.advance (Database.clock db) 1000;
               Database.sync db
             with Fault.Crashed -> ());
            Database.abandon db);
        match Database.create ~dir () with
        | Error e ->
            Alcotest.fail (Printf.sprintf "catalog crash %d: reopen: %s" k e)
        | Ok db ->
            Alcotest.(check (list string))
              (Printf.sprintf "catalog crash %d: emp rows intact" k)
              [ "w001"; "w002"; "w003" ] (surviving_names db);
            let names = Database.relation_names db in
            Alcotest.(check bool)
              (Printf.sprintf
                 "catalog crash %d: catalog is old or new, never mixed" k)
              true
              (names = [ "emp" ] || names = [ "emp"; "extra" ]);
            (* the clock file parsed (old or advanced, never torn) *)
            let now = Tdb_time.Chronon.to_seconds (Database.now db) in
            Alcotest.(check bool)
              (Printf.sprintf "catalog crash %d: clock readable" k)
              true (now > 0);
            Database.close db)
  done

(* === the fence sidecar is advisory ===================================== *)

(* A corrupt or torn "<name>.pages.fences" sidecar must be distrusted and
   rebuilt from the pages; pruned query results are bit-identical. *)
let test_corrupt_fence_sidecar_rebuilt () =
  let pruned_query db =
    match
      Engine.execute db
        "range of e is emp; retrieve (e.name, e.salary) as of \"1980-01-01\";"
    with
    | Ok outcomes ->
        List.concat_map
          (function
            | Engine.Rows { tuples; _ } ->
                List.map
                  (fun t ->
                    String.concat "|"
                      (Array.to_list
                         (Array.map Tdb_relation.Value.to_string t)))
                  tuples
            | _ -> [])
          outcomes
    | Error e -> Alcotest.fail ("pruned query failed: " ^ e)
  in
  List.iter
    (fun (label, damage) ->
      with_dir (fun dir ->
          (match Database.create ~dir () with
          | Error e -> Alcotest.fail e
          | Ok db ->
              must_ok db setup_src;
              for i = 1 to 30 do
                must_ok db (append_src i)
              done;
              Database.close db);
          let sidecar = Filename.concat dir "emp.pages.fences" in
          Alcotest.(check bool)
            (label ^ ": sidecar was persisted")
            true (Sys.file_exists sidecar);
          let reference =
            match Database.create ~dir () with
            | Error e -> Alcotest.fail e
            | Ok db ->
                let r = pruned_query db in
                Database.close db;
                r
          in
          damage sidecar;
          match Database.create ~dir () with
          | Error e -> Alcotest.fail (label ^ ": reopen: " ^ e)
          | Ok db ->
              Alcotest.(check (list string))
                (label ^ ": pruned rows bit-identical after rebuild")
                reference (pruned_query db);
              Database.close db))
    [
      ( "flipped bytes",
        fun sidecar ->
          let fd = Unix.openfile sidecar [ Unix.O_WRONLY ] 0o644 in
          ignore (Unix.write_substring fd "garbage!" 0 8);
          Unix.close fd );
      ( "torn tail",
        fun sidecar ->
          let size = (Unix.stat sidecar).Unix.st_size in
          let fd = Unix.openfile sidecar [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (max 1 (size / 2));
          Unix.close fd );
    ]

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "counter plan transparent" `Quick
          test_counter_plan_is_transparent;
        Alcotest.test_case "dead plan raises" `Quick test_dead_plan_raises;
        Alcotest.test_case "crash after every write" `Quick
          test_crash_after_every_write;
        Alcotest.test_case "torn crash recovers or refuses" `Quick
          test_torn_crash_recovers_or_refuses;
        Alcotest.test_case "flipped byte never served" `Quick
          test_flipped_byte_never_served;
        Alcotest.test_case "EIO surfaces as Io" `Quick
          test_eio_read_surfaces_as_io_error;
        Alcotest.test_case "fault inside a worker partition" `Quick
          test_fault_in_worker_partition;
        Alcotest.test_case "exit codes" `Quick test_exit_codes_distinct;
        Alcotest.test_case "crash-point oracle" `Quick test_crash_point_oracle;
        Alcotest.test_case "journal replays unflushed commits" `Quick
          test_journal_commit_survives_unflushed_crash;
        Alcotest.test_case "journal rolls back uncommitted" `Quick
          test_journal_uncommitted_rolls_back;
        Alcotest.test_case "journal checkpoint truncates" `Quick
          test_journal_checkpoint_truncates;
        Alcotest.test_case "journal can be disabled" `Quick test_journal_disable;
        Alcotest.test_case "atomic-file crash windows" `Quick
          test_atomic_file_crash_windows;
        Alcotest.test_case "catalog and clock survive atomic crash" `Quick
          test_catalog_and_clock_survive_atomic_crash;
        Alcotest.test_case "corrupt fence sidecar rebuilt" `Quick
          test_corrupt_fence_sidecar_rebuilt;
      ] );
  ]
