"""Good replication seam hygiene: every durable write rides the seam."""


class WellBehavedStandby:
    def receive_batch(self, sender, batch):
        for addr, frame in batch.frames:
            self._append_frame(addr, frame)
        return self.log.flushed_addr

    def _append_frame(self, addr, frame):
        header = peek_header(frame)
        assigned = self.log.append_client_frame(
            header.client_id, header.lsn, frame)
        if assigned != addr:
            raise ValueError("divergence")

    def install_bootstrap(self, base_addr, pages):
        self.log.stable.open_at(base_addr)
        for page in pages:
            self._install_page(page)

    def _install_page(self, page):
        if self.faults is not None:
            self.faults.crashpoint("replication.install.before_write")
        self.log.force(page.force_addr)
        self.disk.write_page(page)

    def promotion_checkpoint(self, record):
        return self._append_checkpoint(record)

    def _append_checkpoint(self, record):
        return self.log.append_local(record)

    def track(self, addr, record):
        self._pending.append((addr, record))
