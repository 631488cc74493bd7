type attr = { name : string; ty : Attr_type.t }

type t = {
  db_type : Db_type.t;
  user : attr array;
  all : attr array;
  norms : string array;  (* [all]'s names in {!norm_name} form *)
  size : int;
  valid_from : int option;
  valid_to : int option;
  valid_at : int option;
  tstart : int option;
  tstop : int option;
}

let implicit_names db_type =
  let valid =
    match Db_type.kind db_type with
    | Some Db_type.Interval -> [ "valid from"; "valid to" ]
    | Some Db_type.Event -> [ "valid at" ]
    | None -> []
  in
  let trans =
    if Db_type.has_transaction_time db_type then
      [ "transaction start"; "transaction stop" ]
    else []
  in
  valid @ trans

(* Attribute lookup is case-insensitive, and underscores match spaces so
   the implicit attributes ("valid from", ...) are reachable from TQuel's
   dotted syntax as h.valid_from. *)
let norm s =
  String.lowercase_ascii (String.trim s)
  |> String.map (fun c -> if c = '_' then ' ' else c)

let norm_name = norm

let create ~db_type user_list =
  let implicit =
    List.map (fun name -> { name; ty = Attr_type.Time }) (implicit_names db_type)
  in
  if user_list = [] then Error "a relation needs at least one attribute"
  else
    let names = List.map (fun a -> norm a.name) (user_list @ implicit) in
    let rec dup = function
      | [] -> None
      | n :: rest -> if List.mem n rest then Some n else dup rest
    in
    match dup names with
    | Some n -> Error (Printf.sprintf "duplicate attribute name %S" n)
    | None ->
        if List.exists (fun a -> norm a.name = "") user_list then
          Error "empty attribute name"
        else
          let user = Array.of_list user_list in
          let all = Array.of_list (user_list @ implicit) in
          let size =
            Array.fold_left (fun acc a -> acc + Attr_type.size a.ty) 0 all
          in
          let norms = Array.map (fun a -> norm a.name) all in
          let find name =
            let rec go i =
              if i >= Array.length all then None
              else if String.equal norms.(i) name then Some i
              else go (i + 1)
            in
            go (Array.length user)
          in
          Ok
            {
              db_type;
              user;
              all;
              norms;
              size;
              valid_from = find "valid from";
              valid_to = find "valid to";
              valid_at = find "valid at";
              tstart = find "transaction start";
              tstop = find "transaction stop";
            }

let create_exn ~db_type user_list =
  match create ~db_type user_list with
  | Ok t -> t
  | Error msg -> invalid_arg ("Schema.create_exn: " ^ msg)

let db_type t = t.db_type
let user_attrs t = t.user
let all_attrs t = t.all
let user_arity t = Array.length t.user
let arity t = Array.length t.all
let attr t i = t.all.(i)

let index_of t name =
  let name = norm name in
  let rec go i =
    if i >= Array.length t.norms then None
    else if String.equal t.norms.(i) name then Some i
    else go (i + 1)
  in
  go 0

let tuple_size t = t.size
let valid_from_index t = t.valid_from
let valid_to_index t = t.valid_to
let valid_at_index t = t.valid_at
let transaction_start_index t = t.tstart
let transaction_stop_index t = t.tstop

let equal a b =
  Db_type.equal a.db_type b.db_type
  && Array.length a.all = Array.length b.all
  && Array.for_all2
       (fun x y -> norm x.name = norm y.name && Attr_type.equal x.ty y.ty)
       a.all b.all

let pp ppf t =
  Fmt.pf ppf "(%s: %a)"
    (Db_type.to_string t.db_type)
    Fmt.(array ~sep:(any ", ") (fun ppf a ->
        Fmt.pf ppf "%s = %s" a.name (Attr_type.to_string a.ty)))
    t.all
