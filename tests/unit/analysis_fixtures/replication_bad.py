"""Bad replication seam hygiene: durable replica bytes off the seam."""


class LeakyStandby:
    def receive_batch(self, sender, batch):
        for addr, record in batch.frames:
            assigned = self.log.append_local(record)  # lint:expect REP001
            if assigned != addr:
                raise ValueError("divergence")
        return self.log.flushed_addr

    def install_client_frames(self, client_id, records):
        self.log.append_from_client(client_id, records)  # lint:expect REP001

    def apply_tail(self, up_to):
        for page_id, rec_addr in sorted(self._unapplied.items()):
            page = self._fetch_page(page_id)
            self.redo_onto(page, rec_addr, up_to)
            if self.faults is not None:
                self.faults.crashpoint("replication.apply.before_install")
            self.log.force(page.force_addr)
            self.disk.write_page(page)  # lint:expect REP001

    def install_shipped_bytes(self, client_id, lsn, frame):
        self.log.append_client_frame(client_id, lsn, frame)  # lint:expect REP001
        self.log.append_local_frame(client_id, lsn, frame)  # lint:expect REP001
        self.log.stable.append_frame(frame, lsn)  # lint:expect REP001

    def reseed(self, base_addr):
        self.log.stable.open_at(base_addr)  # lint:expect REP001

    def patch_checkpoint(self, record):
        return self.log.stable.append(record)  # lint:expect REP001

    def track(self, addr, record):
        # Volatile bookkeeping is not the seam's business.
        self._pending.append((addr, record))
