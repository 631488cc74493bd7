(* The result line: printed by every run, read back by --all and
   --repeat.  Only the JSON the runs themselves print needs reading. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | Str s -> Printf.sprintf "%S" s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_string v)) l)
      ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\n' || s.[!i] = '\r') then begin
      incr i;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !i < n && s.[!i] = c then incr i
    else raise (Bad (Printf.sprintf "expected %c at %d" c !i))
  in
  let word w v =
    if !i + String.length w <= n && String.sub s !i (String.length w) = w then begin
      i := !i + String.length w;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at %d" !i))
  in
  let rec value () =
    skip ();
    if !i >= n then raise (Bad "unexpected end");
    match s.[!i] with
    | '{' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            let k = (skip (); string ()) in
            expect ':';
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> raise (Bad (Printf.sprintf "bad number at %d" j)))
  and string () =
    if !i >= n || s.[!i] <> '"' then raise (Bad (Printf.sprintf "expected string at %d" !i));
    incr i;
    let b = Buffer.create 16 in
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' && !i + 1 < n then incr i;
      Buffer.add_char b s.[!i];
      incr i
    done;
    expect '"';
    Buffer.contents b
  in
  let v = value () in
  skip ();
  if !i <> n then raise (Bad (Printf.sprintf "trailing text at %d" !i));
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None
