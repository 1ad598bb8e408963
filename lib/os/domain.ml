type t = { id : int; name : string }

let counter = ref 0

let create ~name =
  incr counter;
  { id = !counter; name }

let name t = t.name
let equal a b = a.id = b.id
