exception Page_fault of int

type pte = { frame_addr : int; mutable wired : int }

type region = { pages : int; first_page : int }

type t = {
  mem : Phys_mem.t;
  table : (int, pte) Hashtbl.t; (* vpage -> pte *)
  regions : (int, region) Hashtbl.t; (* base vaddr -> region *)
  mutable next_vpage : int;
}

let create mem =
  { mem; table = Hashtbl.create 256; regions = Hashtbl.create 64; next_vpage = 16 }

let mem t = t.mem
let page_size t = Phys_mem.page_size t.mem

let pages_for t len offset =
  let ps = page_size t in
  (len + offset + ps - 1) / ps

let install t ~alloc_frames ~len ~offset =
  let ps = page_size t in
  let npages = pages_for t len offset in
  let first_page = t.next_vpage in
  let frames = alloc_frames npages in
  List.iteri
    (fun i frame_addr ->
      Hashtbl.replace t.table (first_page + i) { frame_addr; wired = 0 })
    frames;
  t.next_vpage <- t.next_vpage + npages + 1 (* guard page between regions *);
  let base = (first_page * ps) + offset in
  Hashtbl.replace t.regions base { pages = npages; first_page };
  base

let alloc_offset t ~len ~offset =
  if len <= 0 then invalid_arg "Vspace.alloc: non-positive length";
  if offset < 0 || offset >= page_size t then
    invalid_arg "Vspace.alloc_offset: offset out of range";
  install t
    ~alloc_frames:(fun n -> List.init n (fun _ -> Phys_mem.alloc_frame t.mem))
    ~len ~offset

let alloc t ~len = alloc_offset t ~len ~offset:0

let alloc_contiguous t ~len =
  if len <= 0 then invalid_arg "Vspace.alloc_contiguous: non-positive length";
  let npages = pages_for t len 0 in
  match Phys_mem.alloc_contiguous t.mem ~nframes:npages with
  | None -> None
  | Some base_paddr ->
      let ps = page_size t in
      Some
        (install t
           ~alloc_frames:(fun n -> List.init n (fun i -> base_paddr + (i * ps)))
           ~len ~offset:0)

let free t base =
  match Hashtbl.find_opt t.regions base with
  | None -> invalid_arg "Vspace.free: unknown region"
  | Some r ->
      for i = 0 to r.pages - 1 do
        match Hashtbl.find_opt t.table (r.first_page + i) with
        | None -> ()
        | Some pte ->
            Phys_mem.free_frame t.mem pte.frame_addr;
            Hashtbl.remove t.table (r.first_page + i)
      done;
      Hashtbl.remove t.regions base

let pte_of t vaddr =
  let vpage = vaddr / page_size t in
  match Hashtbl.find_opt t.table vpage with
  | None -> raise (Page_fault vaddr)
  | Some pte -> pte

let translate t vaddr =
  let ps = page_size t in
  let pte = pte_of t vaddr in
  pte.frame_addr + (vaddr mod ps)

let phys_buffers t ~vaddr ~len =
  if len <= 0 then invalid_arg "Vspace.phys_buffers: non-positive length";
  let ps = page_size t in
  let rec go vaddr len acc =
    if len = 0 then List.rev acc
    else begin
      let in_page = ps - (vaddr mod ps) in
      let chunk = Int.min len in_page in
      let paddr = translate t vaddr in
      go (vaddr + chunk) (len - chunk) (Pbuf.v ~addr:paddr ~len:chunk :: acc)
    end
  in
  Pbuf.coalesce (go vaddr len [])

let iter_pages t ~vaddr ~len f =
  let ps = page_size t in
  let first = vaddr / ps and last = (vaddr + len - 1) / ps in
  for vpage = first to last do
    f (pte_of t (vpage * ps))
  done

let wire t ~vaddr ~len =
  iter_pages t ~vaddr ~len (fun pte -> pte.wired <- pte.wired + 1)

let unwire t ~vaddr ~len =
  iter_pages t ~vaddr ~len (fun pte ->
      if pte.wired = 0 then invalid_arg "Vspace.unwire: page not wired";
      pte.wired <- pte.wired - 1)

let is_wired t ~vaddr = (pte_of t vaddr).wired > 0

let wired_pages t =
  Hashtbl.fold (fun _ pte acc -> if pte.wired > 0 then acc + 1 else acc) t.table 0
