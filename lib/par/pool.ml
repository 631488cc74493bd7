(* Deterministic fan-out/join over OCaml 5 domains.

   Domains are spawned per [run_tasks] call rather than kept hot: a
   parallel scan dispatches a handful of partition drains that each run
   for many pages, so spawn cost is noise, and spawn-per-run keeps the
   pool free of shutdown obligations and cross-query state. *)

let run_sequential n task =
  (* Explicit 0..n-1 loop: [Array.init]'s evaluation order is
     unspecified, and a failing task must raise exactly where the
     sequential engine would. *)
  let results = Array.make n None in
  for i = 0 to n - 1 do
    results.(i) <- Some (task i)
  done;
  Array.map Option.get results

let run_tasks ~workers n task =
  if n <= 0 then [||]
  else
    let k = min workers n in
    if k <= 1 then run_sequential n task
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (results.(i) <- Some (try Ok (task i) with e -> Error e));
            loop ()
          end
        in
        loop ()
      in
      let domains = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains;
      (* Every task ran to completion (or failure) before the join, so
         re-raising the lowest-indexed failure is deterministic and no
         partial result escapes. *)
      Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
      Array.map (function Some (Ok v) -> v | _ -> assert false) results
    end
