(* The benchmark's reference: every statement it sends, as TQuel text and
   as the rows that text must return, computed from an in-memory copy of
   the stored versions.

   The copy follows TQuel's update rules for temporal relations: an
   append adds a version valid and current from [now]; a replace stamps
   the transaction stop of each current, still-valid version it matches
   and adds two: the old values valid until [now], and the new values
   valid from [now].  Periods are [from, to) in seconds, an event when
   [to <= from].  Transaction stops only move from [forever] to a
   commit stamp, so the final copy answers a query as of any stamp the
   run pinned: that is how readers on another domain are checked after
   the fact. *)

let forever = Adapter.forever

type version = {
  id : int;
  amount : int;
  seq : int;
  str : string;
  vf : int;
  vt : int;
  tf : int;
  mutable tt : int;
}

type which = H | I

(* id -> versions, newest first *)
type rel = (int, version list) Hashtbl.t

type t = { h : rel; i : rel }

let rel t = function H -> t.h | I -> t.i
let var = function H -> "h" | I -> "i"
let rel_name = function H -> "temporal_h" | I -> "temporal_i"

type row = { r_id : int; r_amount : int; r_str : string; r_stamp : int }

let of_tables ~h ~i =
  let load rows =
    let tbl = Hashtbl.create (Array.length rows) in
    Array.iter
      (fun r ->
        Hashtbl.replace tbl r.r_id
          [
            {
              id = r.r_id;
              amount = r.r_amount;
              seq = 0;
              str = r.r_str;
              vf = r.r_stamp;
              vt = forever;
              tf = r.r_stamp;
              tt = forever;
            };
          ])
      rows;
    tbl
  in
  { h = load h; i = load i }

(* --- periods --- *)

let eff f t = if t < f then (f, f) else (f, t)

let contains (f, t) c = if f = t then c = f else f <= c && c < t

let overlaps (af, at) (bf, bt) =
  let lo = max af bf and hi = min at bt in
  lo < hi || (lo = hi && contains (af, at) lo && contains (bf, bt) lo)

let valid v = eff v.vf v.vt
let current_at v c = contains (eff v.tf v.tt) c
let valid_at v c = contains (valid v) c

(* --- writes --- *)

type write = Replace_key of which * int | Replace_all of which | Append of which * row

let write_text = function
  | Replace_key (w, k) ->
      let x = var w in
      Printf.sprintf "replace %s (seq = %s.seq + 1) where %s.id = %d" x x x k
  | Replace_all w ->
      let x = var w in
      Printf.sprintf "replace %s (seq = %s.seq + 1)" x x
  | Append (w, r) ->
      Printf.sprintf
        "append to %s (id = %d, amount = %d, seq = 0, string = \"%s\")"
        (rel_name w) r.r_id r.r_amount r.r_str

let replace_versions tbl id ~now =
  let vs = Option.value (Hashtbl.find_opt tbl id) ~default:[] in
  let victims = List.filter (fun v -> v.tt = forever && now < v.vt) vs in
  let added =
    List.concat_map
      (fun v ->
        v.tt <- now;
        [
          { v with seq = v.seq + 1; vf = now; vt = forever; tf = now; tt = forever };
          { v with vt = now; tf = now; tt = forever };
        ])
      victims
  in
  if added <> [] then Hashtbl.replace tbl id (added @ vs);
  List.length victims

(* Applies a write committed at [now]; returns the rows it matched. *)
let apply t ~now = function
  | Replace_key (w, k) -> replace_versions (rel t w) k ~now
  | Replace_all w ->
      let tbl = rel t w in
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] in
      List.fold_left (fun n id -> n + replace_versions tbl id ~now) 0 ids
  | Append (w, r) ->
      let tbl = rel t w in
      let v =
        {
          id = r.r_id;
          amount = r.r_amount;
          seq = 0;
          str = r.r_str;
          vf = now;
          vt = forever;
          tf = now;
          tt = forever;
        }
      in
      Hashtbl.replace tbl r.r_id
        (v :: Option.value (Hashtbl.find_opt tbl r.r_id) ~default:[]);
      1

(* --- result digests: a row count and a sum of row hashes, so the order
   the engine returns rows in does not matter --- *)

type digest = { rows : int; sum : int }

let empty = { rows = 0; sum = 0 }

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let row_hash n get =
  let h = ref 0x2545f491 in
  for k = 0 to n - 1 do
    h := mix !h (get k)
  done;
  mix !h n

let add d n get = { rows = d.rows + 1; sum = d.sum + row_hash n get }
let add_list d l = add d (List.length l) (List.nth l)

(* The stored-tuple layout: user attributes, valid from/to, transaction
   start/stop; the string enters as its [Hashtbl.hash]. *)
let version_fields v =
  [ v.id; v.amount; v.seq; Hashtbl.hash v.str; v.vf; v.vt; v.tf; v.tt ]

let stored_digest tbl =
  Hashtbl.fold
    (fun _ vs d -> List.fold_left (fun d v -> add_list d (version_fields v)) d vs)
    tbl empty

(* --- reads --- *)

type query =
  | Paper of int  (** Q01..Q12 of the paper, temporal texts *)
  | Current_key of which * int
  | Versions of which * int
  | As_of of which * int
  | Current_amount of which * int
  | Id_range of int * int  (** on the ISAM relation *)
  | Precede_join of int  (** the Q11 shape as of an instant *)

let paper_texts =
  [|
    "retrieve (h.id, h.seq) where h.id = 500";
    "retrieve (i.id, i.seq) where i.id = 500";
    {|retrieve (h.id, h.seq) as of "08:00 1/1/80"|};
    {|retrieve (i.id, i.seq) as of "08:00 1/1/80"|};
    {|retrieve (h.id, h.seq) where h.id = 500 when h overlap "now"|};
    {|retrieve (i.id, i.seq) where i.id = 500 when i overlap "now"|};
    {|retrieve (h.id, h.seq) where h.amount = 69400 when h overlap "now"|};
    {|retrieve (i.id, i.seq) where i.amount = 73700 when i overlap "now"|};
    {|retrieve (h.id, i.id, i.amount) where h.id = i.amount when h overlap i and i overlap "now"|};
    {|retrieve (i.id, h.id, h.amount) where i.id = h.amount when h overlap i and h overlap "now"|};
    {|retrieve (h.id, h.seq, i.id, i.seq, i.amount) valid from start of h to end of i when start of h precede i as of "4:00 1/1/80"|};
    {|retrieve (h.id, h.seq, i.id, i.seq, i.amount) valid from start of (h overlap i) to end of (h extend i) where h.id = 500 and i.amount = 73700 when h overlap i as of "now"|};
  |]

let precede_text lit =
  Printf.sprintf
    {|retrieve (h.id, h.seq, i.id, i.seq, i.amount) valid from start of h to end of i when start of h precede i as of "%s"|}
    lit

let query_text = function
  | Paper n -> paper_texts.(n - 1)
  | Current_key (w, k) ->
      let x = var w in
      Printf.sprintf
        {|retrieve (%s.id, %s.seq, %s.amount) where %s.id = %d when %s overlap "now"|}
        x x x x k x
  | Versions (w, k) ->
      let x = var w in
      Printf.sprintf "retrieve (%s.id, %s.seq) where %s.id = %d" x x x k
  | As_of (w, at) ->
      let x = var w in
      Printf.sprintf {|retrieve (%s.id, %s.seq) as of "%s"|} x x
        (Adapter.literal_of_seconds at)
  | Current_amount (w, a) ->
      let x = var w in
      Printf.sprintf
        {|retrieve (%s.id, %s.seq) where %s.amount = %d when %s overlap "now"|}
        x x x a x
  | Id_range (lo, hi) ->
      Printf.sprintf
        {|retrieve (i.id, i.seq) where i.id >= %d and i.id <= %d when i overlap "now"|}
        lo hi
  | Precede_join at -> precede_text (Adapter.literal_of_seconds at)

(* Number of target columns: the engine appends the time attributes
   after them, and only the targets enter the digest. *)
let columns = function
  | Paper (9 | 10) | Current_key _ -> 3
  | Paper (11 | 12) | Precede_join _ -> 5
  | Paper _ | Versions _ | As_of _ | Current_amount _ | Id_range _ -> 2

let joins = function
  | Paper (9 | 10 | 11 | 12) | Precede_join _ -> true
  | _ -> false

let fold_rel tbl f acc =
  Hashtbl.fold (fun _ vs acc -> List.fold_left f acc vs) tbl acc

let key_versions tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]
let t_0800 = lazy (Adapter.seconds_of_literal "08:00 1/1/80")
let t_0400 = lazy (Adapter.seconds_of_literal "4:00 1/1/80")

let select tbl p =
  fold_rel tbl (fun acc v -> if p v then v :: acc else acc) []

let id_seq d v = add_list d [ v.id; v.seq ]

(* [start of h precede i] as of [at]: h starts no later than i does. *)
let precede_join t at =
  let hs = select t.h (fun v -> current_at v at) in
  let is = select t.i (fun v -> current_at v at) in
  List.fold_left
    (fun d hv ->
      List.fold_left
        (fun d iv ->
          if fst (valid hv) <= fst (valid iv) then
            add_list d [ hv.id; hv.seq; iv.id; iv.seq; iv.amount ]
          else d)
        d is)
    empty hs

(* Q09 and Q10: [outer.id = inner.amount] joins of the versions current
   at [now], valid periods overlapping, with [now] inside the inner
   version's valid period. *)
let equi_join ~outer ~inner ~now row =
  fold_rel inner
    (fun d iv ->
      if not (current_at iv now) then d
      else
        List.fold_left
          (fun d ov ->
            if
              current_at ov now
              && overlaps (valid ov) (valid iv)
              && valid_at iv now
            then add_list d (row ov iv)
            else d)
          d (key_versions outer iv.amount))
    empty

let eval t ~now q =
  let fold_sel tbl p = fold_rel tbl (fun d v -> if p v then id_seq d v else d) empty in
  let key_sel w k p =
    List.fold_left (fun d v -> if p v then id_seq d v else d) empty
      (key_versions (rel t w) k)
  in
  let cur v = current_at v now && valid_at v now in
  match q with
  | Paper 1 -> key_sel H 500 (fun v -> current_at v now)
  | Paper 2 -> key_sel I 500 (fun v -> current_at v now)
  | Paper 3 -> fold_sel t.h (fun v -> current_at v (Lazy.force t_0800))
  | Paper 4 -> fold_sel t.i (fun v -> current_at v (Lazy.force t_0800))
  | Paper 5 -> key_sel H 500 cur
  | Paper 6 -> key_sel I 500 cur
  | Paper 7 -> fold_sel t.h (fun v -> v.amount = 69400 && cur v)
  | Paper 8 -> fold_sel t.i (fun v -> v.amount = 73700 && cur v)
  | Paper 9 ->
      equi_join ~outer:t.h ~inner:t.i ~now (fun hv iv ->
          [ hv.id; iv.id; iv.amount ])
  | Paper 10 ->
      equi_join ~outer:t.i ~inner:t.h ~now (fun iv hv ->
          [ iv.id; hv.id; hv.amount ])
  | Paper 11 -> precede_join t (Lazy.force t_0400)
  | Paper 12 ->
      List.fold_left
        (fun d hv ->
          if not (current_at hv now) then d
          else
            fold_rel t.i
              (fun d iv ->
                if
                  iv.amount = 73700 && current_at iv now
                  && overlaps (valid hv) (valid iv)
                then add_list d [ hv.id; hv.seq; iv.id; iv.seq; iv.amount ]
                else d)
              d)
        empty (key_versions t.h 500)
  | Paper n -> invalid_arg (Printf.sprintf "no paper query Q%02d" n)
  | Current_key (w, k) ->
      List.fold_left
        (fun d v -> if cur v then add_list d [ v.id; v.seq; v.amount ] else d)
        empty
        (key_versions (rel t w) k)
  | Versions (w, k) -> key_sel w k (fun v -> current_at v now)
  | As_of (w, at) -> fold_sel (rel t w) (fun v -> current_at v at)
  | Current_amount (w, a) -> fold_sel (rel t w) (fun v -> v.amount = a && cur v)
  | Id_range (lo, hi) -> fold_sel t.i (fun v -> lo <= v.id && v.id <= hi && cur v)
  | Precede_join at -> precede_join t at

(* Digest of an engine result: the first [columns q] fields of each
   tuple. *)
let digest_tuples q tuples =
  let n = columns q in
  List.fold_left (fun d t -> add d n (Adapter.int_field t)) empty tuples
