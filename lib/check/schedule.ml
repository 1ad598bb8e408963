type t = int list

let to_string = function
  | [] -> "-"
  | picks -> String.concat "." (List.map string_of_int picks)

let of_string s =
  match String.trim s with
  | "" | "-" -> []
  | s ->
      List.map
        (fun part ->
          match int_of_string_opt (String.trim part) with
          | Some n when n >= 0 -> n
          | Some _ -> failwith "Schedule.of_string: negative pick"
          | None ->
              failwith ("Schedule.of_string: bad pick " ^ String.trim part))
        (String.split_on_char '.' s)
