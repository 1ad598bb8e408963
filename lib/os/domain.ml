type t = { name : string }

let create ~name = { name }
let name t = t.name
